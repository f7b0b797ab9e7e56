package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// ResultSet is what one `flepperf` invocation over all workloads
// measured: for every workload and metric, one value per run.
type ResultSet struct {
	Seed    int64 `json:"seed"`
	Seconds int   `json:"seconds"`
	Runs    int   `json:"runs"`
	// Correct is false if any run of any workload failed a check.
	Correct   bool                            `json:"correct"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

// WriteFile stores the result set as JSON, creating the directory.
func (rs *ResultSet) WriteFile(path string) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResultSet loads a result set written by WriteFile.
func ReadResultSet(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// Verdict is how a candidate's metric compares with the reference's.
type Verdict string

const (
	OK         Verdict = "ok"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved" // run-to-run spread wider than the bound
	Skipped    Verdict = "skipped"    // exact metric, but the seeds differ
)

// Comparison is one metric's verdict on one workload.
type Comparison struct {
	Workload, Metric   string
	Reference, Changed float64 // medians
	Allowed            float64 // how much worse Changed may be
	Verdict            Verdict
}

// allowance returns how far the metric's median may worsen on the
// workload, and whether the metric must instead repeat exactly.
func (m Metric) allowance(workload string, reference float64) (allowed float64, exact bool) {
	if abs, ok := m.AbsOn[workload]; ok {
		return abs, false
	}
	switch {
	case m.Exact:
		return 0, true
	case m.Rel > 0:
		return m.Rel * math.Abs(reference), false
	default:
		return m.Abs, false
	}
}

// Compare judges changed against reference, metric by metric, with the
// bounds of the catalogue. Per-layer metrics carry no bound and are not
// judged; a metric a workload does not produce is in neither set.
func Compare(reference, changed *ResultSet) []Comparison {
	var out []Comparison
	for _, w := range Workloads() {
		ref, chg := reference.Workloads[w.Name], changed.Workloads[w.Name]
		for _, m := range Metrics() {
			a, b := ref[m.Name], chg[m.Name]
			if m.Kind == Layer || len(a) == 0 || len(b) == 0 {
				continue
			}
			c := Comparison{Workload: w.Name, Metric: m.Name, Reference: Median(a), Changed: Median(b)}
			// paper_suite takes no input, so its results do not depend on
			// the seed.
			sameInputs := reference.Seed == changed.Seed || w.Name == PaperSuite
			c.Verdict = judge(m, w.Name, a, b, &c, sameInputs)
			out = append(out, c)
		}
	}
	return out
}

func judge(m Metric, workload string, a, b []float64, c *Comparison, sameInputs bool) Verdict {
	allowed, exact := m.allowance(workload, c.Reference)
	c.Allowed = allowed
	if exact {
		if !sameInputs {
			return Skipped
		}
		for _, x := range append(append([]float64(nil), a...), b...) {
			if x != a[0] {
				return Regressed
			}
		}
		return OK
	}
	// worse > 0 means the candidate reads worse.
	sign := 1.0
	if m.HigherBetter {
		sign = -1
	}
	worse := sign * (c.Changed - c.Reference)
	spread := math.Max(iqr(a), iqr(b))
	if spread <= allowed {
		if worse > allowed {
			return Regressed
		}
		return OK
	}
	// The noise is wider than the bound: only a clean separation of the
	// two sets of runs says anything.
	bestA, worstA := extremes(a, sign)
	bestB, worstB := extremes(b, sign)
	switch {
	case sign*worstB < sign*bestA:
		return OK
	case sign*bestB > sign*worstA && worse > allowed:
		return Regressed
	}
	return Unresolved
}

// iqr is the absolute interquartile distance (0 below two values).
func iqr(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := Quartiles(vs)
	return math.Abs(q3 - q1)
}

// extremes returns the best and the worst reading, where sign +1 means
// lower is better.
func extremes(vs []float64, sign float64) (best, worst float64) {
	best, worst = vs[0], vs[0]
	for _, v := range vs {
		if sign*v < sign*best {
			best = v
		}
		if sign*v > sign*worst {
			worst = v
		}
	}
	return best, worst
}

// WriteAgreement prints each workload in its own row with its overall
// verdict, then the metrics behind it, and reports whether every metric
// agreed.
func WriteAgreement(w io.Writer, cs []Comparison) bool {
	agreed := true
	for _, wl := range Workloads() {
		counts := map[Verdict]int{}
		var lines []string
		for _, c := range cs {
			if c.Workload != wl.Name {
				continue
			}
			counts[c.Verdict]++
			lines = append(lines, fmt.Sprintf("    %-22s %-10s reference %.6g  changed %.6g  allowed %.4g",
				c.Metric, c.Verdict, c.Reference, c.Changed, c.Allowed))
		}
		verdict := OK
		switch {
		case counts[Regressed] > 0:
			verdict = Regressed
		case counts[Unresolved] > 0:
			verdict = Unresolved
		}
		if verdict != OK {
			agreed = false
		}
		fmt.Fprintf(w, "%-18s %-10s (%d ok, %d regressed, %d unresolved, %d skipped)\n",
			wl.Name, verdict, counts[OK], counts[Regressed], counts[Unresolved], counts[Skipped])
		fmt.Fprintln(w, strings.Join(lines, "\n"))
	}
	return agreed
}
