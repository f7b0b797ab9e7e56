package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
)

func TestBuildScenarioPair(t *testing.T) {
	sc, opt, err := buildScenario("SPMV,NN", "", false, false, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "SPMV_NN" || len(sc.Items) != 2 {
		t.Fatalf("scenario %+v", sc)
	}
	if opt.Policy != "hpf" {
		t.Fatalf("policy %q", opt.Policy)
	}
}

func TestBuildScenarioEqual(t *testing.T) {
	sc, _, err := buildScenario("VA,NN", "", true, false, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Items[0].Priority != sc.Items[1].Priority {
		t.Fatal("equal pair priorities differ")
	}
}

func TestBuildScenarioTriplet(t *testing.T) {
	sc, _, err := buildScenario("", "VA,SPMV,MM", false, false, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "VA_SPMV_MM" {
		t.Fatalf("name %s", sc.Name)
	}
}

func TestBuildScenarioFFS(t *testing.T) {
	sc, opt, err := buildScenario("MM,SPMV", "", false, false, true, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Policy != "ffs" || opt.MaxOverhead != 0.10 {
		t.Fatalf("opt %+v", opt)
	}
	if sc.Horizon != 50*time.Millisecond {
		t.Fatalf("horizon %v", sc.Horizon)
	}
}

func TestBuildScenarioSpatial(t *testing.T) {
	_, opt, err := buildScenario("NN,CFD", "", false, true, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Spatial {
		t.Fatal("spatial not enabled")
	}
}

func TestBuildScenarioErrors(t *testing.T) {
	cases := []struct {
		pair, triplet string
	}{
		{"", ""},
		{"SPMV", ""},
		{"SPMV,NOPE", ""},
		{"", "VA,SPMV"},
		{"", "VA,SPMV,NOPE"},
	}
	for _, c := range cases {
		if _, _, err := buildScenario(c.pair, c.triplet, false, false, false, 0); err == nil {
			t.Errorf("pair=%q triplet=%q: expected error", c.pair, c.triplet)
		}
	}
}

// -pair VA,VA runs one kernel on two inputs: each row must show its own
// run and the ANTT must normalize each run by its own class's baseline.
func TestComparisonOfTheSameKernelTwice(t *testing.T) {
	sc, opt, err := buildScenario("VA,VA", "", false, false, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := kernels.ByName("VA")
	sys := core.NewSystem(gpu.DefaultParams())
	if err := sys.Offline([]*kernels.Benchmark{va}); err != nil {
		t.Fatal(err)
	}
	mps, err := sys.RunMPS(sc)
	if err != nil {
		t.Fatal(err)
	}
	flep, err := sys.RunFLEP(sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printComparison(&out, sc, mps, flep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want a header, two rows, a blank and the ANTT line:\n%s", out.String())
	}
	large, small := strings.Fields(lines[1]), strings.Fields(lines[2])
	if large[1] != "large" || small[1] != "small" {
		t.Fatalf("rows out of scenario order:\n%s", out.String())
	}
	if large[2] == small[2] || large[3] == small[3] {
		t.Errorf("both rows print one run's figures:\n%s\n%s", lines[1], lines[2])
	}
	mRuns, fRuns := mps.Results, flep.Results
	want := fmt.Sprintf("ANTT: MPS %.2f → FLEP %.2f ", metrics.ANTT(mRuns), metrics.ANTT(fRuns))
	if !strings.HasPrefix(lines[4], want) {
		t.Errorf("printed %q, want it to start %q", lines[4], want)
	}
	if a := metrics.ANTT(fRuns); a < 1 || a > 2 {
		t.Errorf("FLEP ANTT %.2f: the small run preempts the large one, so both finish near their solo times", a)
	}
}

// -ffs runs closed-loop clients, which finish only at the horizon: -horizon 0
// used to mean "run to drain" and never returned (12 GB resident after a
// minute), a negative one printed a one-completion table. Both are usage
// errors, refused before the offline phase starts.
func TestFFSRejectsNonPositiveHorizon(t *testing.T) {
	for _, horizon := range []string{"0", "-5ms"} {
		var stdout, stderr bytes.Buffer
		start := time.Now()
		code := run([]string{"-ffs", "-pair", "VA,NN", "-horizon", horizon}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-horizon %s: exit %d, want 2", horizon, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, "-horizon") || !strings.Contains(msg, "Usage of flepsim") {
			t.Errorf("-horizon %s: stderr names neither the flag nor the usage:\n%s", horizon, msg)
		}
		if stdout.Len() != 0 {
			t.Errorf("-horizon %s printed a table:\n%s", horizon, stdout.String())
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("-horizon %s took %v to refuse", horizon, d)
		}
	}
	// Without -ffs nothing loops and the horizon is not read.
	if _, _, err := buildScenario("VA,NN", "", false, false, false, 0); err != nil {
		t.Error(err)
	}
}
