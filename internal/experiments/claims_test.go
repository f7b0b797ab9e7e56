package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"testing"
)

var updateClaims = flag.Bool("update", false, "rewrite results/claims.txt from this run")

const claimsPath = "../../results/claims.txt"

// regenerated is every artefact of the suite, regenerated in paper order,
// by ID.
func regenerated(t *testing.T) map[string]*Table {
	t.Helper()
	s := testSuite(t)
	tables := map[string]*Table{}
	for _, g := range Generators() {
		tab, err := g.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", g.ID, err)
		}
		tables[g.ID] = tab
	}
	return tables
}

// columnIndex is the position of a table's column.
func columnIndex(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("%s has no column %q", tab.ID, name)
	return -1
}

// claimValue reduces a claim's column of its regenerated artefact, reading
// the cells as printed.
func claimValue(t *testing.T, tables map[string]*Table, c Claim) float64 {
	t.Helper()
	tab, ok := tables[c.ID]
	if !ok {
		t.Fatalf("the suite has no artefact %q", c.ID)
	}
	col := columnIndex(t, tab, c.Column)
	over := -1
	if c.Over != "" {
		over = columnIndex(t, tab, c.Over)
	}
	var vals []float64
	for _, row := range tab.Rows {
		if c.Row != "" && row[0] != c.Row {
			continue
		}
		v := cellFloat(t, row[col])
		if over >= 0 {
			v /= cellFloat(t, row[over])
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 || c.Reduce == "each" && len(vals) != 1 {
		t.Fatalf("%s %s: %d rows for %q", c.ID, c.Column, len(vals), c.Reduce)
	}
	out := vals[0]
	switch c.Reduce {
	case "max":
		for _, v := range vals {
			out = math.Max(out, v)
		}
	case "min":
		for _, v := range vals {
			out = math.Min(out, v)
		}
	case "mean":
		out = 0
		for _, v := range vals {
			out += v
		}
		out /= float64(len(vals))
	case "each":
	default:
		t.Fatalf("%s %s: unknown reduction %q", c.ID, c.Column, c.Reduce)
	}
	return out
}

// enforced reports whether a claim has a band, not only a paper value.
func enforced(c Claim) bool { return c.Lo != 0 || c.Hi != 0 }

// column names what a claim reduces: its column, a ratio, or one row's cell.
func column(c Claim) string {
	out := c.Column
	if c.Over != "" {
		out += "/" + c.Over
	}
	if c.Row != "" {
		out += " (" + c.Row + ")"
	}
	return out
}

// TestPaperClaims holds every regenerated headline value to its claim's
// band: the suite's numeric bounds against the paper, all in one loop.
func TestPaperClaims(t *testing.T) {
	tables := regenerated(t)
	for _, c := range Claims() {
		if !enforced(c) {
			continue
		}
		if v := claimValue(t, tables, c); v < c.Lo || v > c.Hi {
			t.Errorf("%s %s %s: %.4g outside [%g, %g] (paper %.4g)", c.ID, column(c), c.Reduce, v, c.Lo, c.Hi, c.Paper)
		}
	}
}

// scorecard renders every claim against its regenerated value: the paper's
// value, the regenerated one, how far off, the band and the verdict.
func scorecard(t *testing.T, tables map[string]*Table) string {
	t.Helper()
	sc := &Table{
		ID:      "claims",
		Title:   "The paper's §6 headline values against the regenerated artefacts",
		Columns: []string{"artefact", "column", "reduce", "paper", "regenerated", "off", "band", "verdict"},
	}
	g := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	for _, c := range Claims() {
		v := claimValue(t, tables, c)
		band, verdict := "-", "report"
		if enforced(c) {
			band = "[" + g(c.Lo) + ", " + g(c.Hi) + "]"
			if math.IsInf(c.Hi, 1) {
				band = "[" + g(c.Lo) + ", inf)"
			}
			verdict = "ok"
			if v < c.Lo || v > c.Hi {
				verdict = "FAIL"
			}
		}
		sc.AddRow(c.ID, column(c), c.Reduce, g(c.Paper), g(v), fmt.Sprintf("%+.1f%%", (v-c.Paper)/c.Paper*100), band, verdict)
	}
	sc.Note("regenerated: the column of results/flepbench.txt reduced as printed; off: regenerated against the paper")
	sc.Note("band: inclusive, enforced by TestPaperClaims; report: no band, the paper's value is shown only")
	return sc.Format()
}

// TestClaimsScorecard keeps results/claims.txt equal to the scorecard the
// suite renders today. Any difference means a paper value, a band or a
// regenerated figure moved: `go test ./internal/experiments -run
// TestClaimsScorecard -update` rewrites the file.
func TestClaimsScorecard(t *testing.T) {
	got := scorecard(t, regenerated(t))
	if *updateClaims {
		if err := os.WriteFile(claimsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(claimsPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s is stale; the suite renders:\n%s", claimsPath, got)
	}
}
