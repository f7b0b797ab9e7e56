package obs

import (
	"os"
	"strings"
	"testing"
)

func TestRelabelTextInjectsNodeLabel(t *testing.T) {
	in := strings.Join([]string{
		`# HELP flep_x_total Things`,
		`# TYPE flep_x_total counter`,
		`flep_x_total 3`,
		`flep_y_total{kind="primary"} 2`,
		`flep_h_bucket{le="+Inf"} 5`,
		`flep_h_sum 1.25`,
		``,
	}, "\n")
	var out strings.Builder
	if err := RelabelText(&out, strings.NewReader(in), "node", "n0"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		`flep_x_total{node="n0"} 3`,
		`flep_y_total{node="n0",kind="primary"} 2`,
		`flep_h_bucket{node="n0",le="+Inf"} 5`,
		`flep_h_sum{node="n0"} 1.25`,
		"# HELP flep_x_total Things",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Fatalf("relabeled exposition missing %q:\n%s", want, got)
		}
	}

	// The relabeled text must round-trip through the parser, and the
	// label-subset sum must see the injected label.
	snap, err := ParseText(strings.NewReader(got))
	if err != nil {
		t.Fatalf("relabeled exposition does not parse: %v", err)
	}
	if v := snap.SumMatching("flep_y_total", "node", "n0", "kind", "primary"); v != 2 {
		t.Fatalf("SumMatching over relabeled = %v, want 2", v)
	}
}

func TestRelabelTextEscapesValue(t *testing.T) {
	var out strings.Builder
	if err := RelabelText(&out, strings.NewReader("flep_x_total 1\n"), "node", `a"b\c`); err != nil {
		t.Fatal(err)
	}
	if want := `flep_x_total{node="a\"b\\c"} 1`; !strings.Contains(out.String(), want) {
		t.Fatalf("got %q, want %q", out.String(), want)
	}
}

func TestSnapshotLabelValues(t *testing.T) {
	in := strings.Join([]string{
		`flep_x_total{node="n1",outcome="completed"} 3`,
		`flep_x_total{node="n0",outcome="completed"} 2`,
		`flep_x_total{node="n0",outcome="enqueued"} 2`,
		`flep_other_total{node="zz"} 1`,
		`flep_x_total 9`, // unlabeled sample contributes no values
	}, "\n")
	snap, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got := snap.LabelValues("flep_x_total", "node")
	if len(got) != 2 || got[0] != "n0" || got[1] != "n1" {
		t.Fatalf("LabelValues = %v, want [n0 n1]", got)
	}
	if vals := snap.LabelValues("flep_x_total", "nope"); len(vals) != 0 {
		t.Fatalf("unknown key yielded %v", vals)
	}
}

// twoSources is what a fleet's two shards (or a gateway's two nodes)
// render: the same families, each under its own header.
var twoSources = []string{
	"# HELP flep_x_total Things\n# TYPE flep_x_total counter\nflep_x_total{kind=\"a\"} 1\nflep_x_total{kind=\"b\"} 2\n" +
		"# HELP flep_h_seconds Waits\n# TYPE flep_h_seconds histogram\nflep_h_seconds_bucket{le=\"+Inf\"} 3\nflep_h_seconds_sum 0.5\nflep_h_seconds_count 3\n",
	"# HELP flep_x_total Things\n# TYPE flep_x_total counter\nflep_x_total{kind=\"a\"} 4\n" +
		"# HELP flep_h_seconds Waits\n# TYPE flep_h_seconds histogram\nflep_h_seconds_bucket{le=\"+Inf\"} 1\nflep_h_seconds_sum 2\nflep_h_seconds_count 1\n" +
		"# HELP flep_only_here Extra\n# TYPE flep_only_here gauge\nflep_only_here 7\n",
}

// ParseText is the strict checker: it refuses what the reference parser
// refuses — a second HELP or TYPE line for a name, and a family whose
// lines resume after another family began — which is exactly what
// concatenating two sources produces.
func TestParseTextIsStrictAboutFamilies(t *testing.T) {
	for _, tc := range []struct {
		name, text, want string
	}{
		{"two sources concatenated", twoSources[0] + twoSources[1], "second HELP line for metric name flep_x_total"},
		{"second TYPE line", "# TYPE flep_a counter\n# TYPE flep_a counter\nflep_a 1\n", "second TYPE line for metric name flep_a"},
		{"second HELP line", "# HELP flep_a A\n# TYPE flep_a counter\n# HELP flep_a A\n", "second HELP line for metric name flep_a"},
		{"samples resume", "# TYPE flep_a counter\nflep_a{k=\"1\"} 1\n# TYPE flep_b counter\nflep_b 1\nflep_a{k=\"2\"} 1\n", "family flep_a resumes after flep_b began"},
		{"histogram series resume", "# TYPE flep_h histogram\nflep_h_sum 1\n# TYPE flep_b counter\nflep_b 1\nflep_h_count 1\n", "family flep_h resumes after flep_b began"},
		{"header resumes", "# HELP flep_a A\nflep_a 1\n# TYPE flep_b counter\nflep_b 1\n# TYPE flep_a counter\n", "family flep_a resumes after flep_b began"},
	} {
		if _, err := ParseText(strings.NewReader(tc.text)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	for _, src := range twoSources {
		if _, err := ParseText(strings.NewReader(src)); err != nil {
			t.Errorf("one source alone is valid: %v", err)
		}
	}
}

// A series is a name and a label set, however the set is written: `{}` is
// no label set and a trailing comma is no label. A second sample of one
// series is an error, as the reference parser has it.
func TestParseTextRejectsASeriesTwice(t *testing.T) {
	for _, text := range []string{
		"t 0\nt 1\n",
		"t{} 0\nt 1\n",
		"t{a=\"b\",} 0\nt{a=\"b\"} 1\n",
		"# TYPE h histogram\nh_sum 1\nh_count 1\nh_sum{} 2\n",
	} {
		if _, err := ParseText(strings.NewReader(text)); err == nil || !strings.Contains(err.Error(), "second sample for series") {
			t.Errorf("%q: err = %v, want a second sample refused", text, err)
		}
	}
	snap, err := ParseText(strings.NewReader("t{} 1\nu{a=\"b\",} 2\nu 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if snap["t"] != 1 || snap[`u{a="b"}`] != 2 || snap["u"] != 3 || len(snap) != 3 {
		t.Errorf("snapshot %v, want t, u{a=\"b\"} and u", snap)
	}
}

// FuzzParseText checks that an exposition ParseText accepts still parses
// after a relabel, with one series for each it had: the relabel may not
// merge two series or split one family.
func FuzzParseText(f *testing.F) {
	golden, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range append([]string{string(golden), "t 1\n", "t{a=\"b\"} 1\nt 2\n"}, twoSources...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		before, err := ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := RelabelText(&out, strings.NewReader(text), "node", "n0"); err != nil {
			t.Fatalf("relabel: %v", err)
		}
		after, err := ParseText(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("relabeled exposition no longer parses: %v\n%s", err, out.String())
		}
		if len(after) != len(before) {
			t.Fatalf("%d series became %d:\n%s", len(before), len(after), out.String())
		}
	})
}

// An Exposition of the two sources is one valid exposition: each family's
// header once, every source's samples under it, told apart by the label.
func TestExpositionGroupsFamiliesAcrossSources(t *testing.T) {
	var e Exposition
	for i, src := range twoSources {
		if err := e.Add(strings.NewReader(src), "device", []string{"0", "1"}[i]); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := e.Write(&out); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP flep_x_total Things`,
		`# TYPE flep_x_total counter`,
		`flep_x_total{device="0",kind="a"} 1`,
		`flep_x_total{device="0",kind="b"} 2`,
		`flep_x_total{device="1",kind="a"} 4`,
		`# HELP flep_h_seconds Waits`,
		`# TYPE flep_h_seconds histogram`,
		`flep_h_seconds_bucket{device="0",le="+Inf"} 3`,
		`flep_h_seconds_sum{device="0"} 0.5`,
		`flep_h_seconds_count{device="0"} 3`,
		`flep_h_seconds_bucket{device="1",le="+Inf"} 1`,
		`flep_h_seconds_sum{device="1"} 2`,
		`flep_h_seconds_count{device="1"} 1`,
		`# HELP flep_only_here Extra`,
		`# TYPE flep_only_here gauge`,
		`flep_only_here{device="1"} 7`,
		``,
	}, "\n")
	if out.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", out.String(), want)
	}
	snap, err := ParseText(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("the assembled exposition does not parse strictly: %v", err)
	}
	if v := snap.SumMatching("flep_x_total", "kind", "a"); v != 5 {
		t.Fatalf("kind=a across sources = %v, want 5", v)
	}
}
