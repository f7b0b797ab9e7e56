package experiments

import (
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flep/internal/workload"
)

var (
	suiteOnce sync.Once
	suiteInst *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suiteInst, suiteErr = NewSuite() })
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteInst
}

// parse helpers for assertions on rendered cells.
func cellFloat(t *testing.T, cell string) float64 {
	t.Helper()
	trimmed := strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
	v, err := strconv.ParseFloat(trimmed, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestTable1RowsAndFactors(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
}

func TestFigure1MaxSlowdown(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 28 {
		t.Fatalf("pairs = %d, want 28", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if v := cellFloat(t, row[3]); v < 1 {
			t.Errorf("%s: slowdown %v < 1", row[0], v)
		}
	}
}

func TestFigure7ErrorShape(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	errs := map[string]float64{}
	for _, row := range tab.Rows {
		errs[row[0]] = cellFloat(t, row[1])
	}
	for _, regular := range []string{"NN", "MM", "VA"} {
		if errs[regular] > 6 {
			t.Errorf("%s error %.1f%% too high for a regular kernel", regular, errs[regular])
		}
	}
	for name, e := range errs {
		if name != "SPMV" && e > errs["SPMV"] {
			t.Errorf("%s error %.1f%% exceeds SPMV's %.1f%%", name, e, errs["SPMV"])
		}
	}
}

func TestFigure8SpeedupRange(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 28 {
		t.Fatalf("pairs = %d", len(tab.Rows))
	}
}

func TestFigure9DecaysToPlateau(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	// Per pair (7 delay points each): speedup decays toward a plateau at
	// ≈1. Inside the plateau band small wobbles are fine (preempting a
	// nearly-finished kernel can briefly cost more than waiting).
	for i := 0; i+6 < len(tab.Rows); i += 7 {
		prev := 1e18
		for j := 0; j < 7; j++ {
			v := cellFloat(t, tab.Rows[i+j][2])
			if v > prev*1.05 && v > 1.25 {
				t.Errorf("pair %s: speedup not decaying: %v after %v", tab.Rows[i][0], v, prev)
			}
			prev = v
		}
		last := cellFloat(t, tab.Rows[i+6][2])
		if last < 0.9 || last > 1.4 {
			t.Errorf("pair %s: plateau %.2f, want ≈1", tab.Rows[i][0], last)
		}
	}
}

func TestFigure10And11(t *testing.T) {
	s := testSuite(t)
	for _, gen := range []func() (*Table, error){s.Figure10, s.Figure11} {
		tab, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) != 28 {
			t.Fatalf("%s: pairs = %d", tab.ID, len(tab.Rows))
		}
	}
}

func TestFigure12TripletsAndReordering(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 28 {
		t.Fatalf("triplets = %d", len(tab.Rows))
	}
	var sumF, sumR float64
	for _, row := range tab.Rows {
		sumF += cellFloat(t, row[3])
		sumR += cellFloat(t, row[5])
	}
	meanF, meanR := sumF/28, sumR/28
	// Reordering helps only marginally: far below FLEP.
	if meanR > meanF/3 {
		t.Fatalf("reordering improvement %.2fx too close to FLEP %.2fx", meanR, meanF)
	}
}

func TestFigure13SharesNearWeights(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	var sumHi, sumLo float64
	for _, row := range tab.Rows {
		sumHi += cellFloat(t, row[1])
		sumLo += cellFloat(t, row[2])
	}
	n := float64(len(tab.Rows))
	if hi, lo := sumHi/n, sumLo/n; hi/lo < 1.4 {
		t.Fatalf("share ratio %.2f too flat for 2:1 weights", hi/lo)
	}
}

func TestFigure14NearBudget(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure14()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 28 {
		t.Fatalf("pairs = %d", len(tab.Rows))
	}
}

func TestFigure15SpatialReduction(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure15()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if v := cellFloat(t, row[3]); v <= 0 {
			t.Errorf("%s: spatial preemption did not reduce overhead (%.1f%%)", row[0], v)
		}
	}
}

func TestFigure16BoundedSpeedup(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure16()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if v := cellFloat(t, row[3]); v < 0.95 {
			t.Errorf("%s @%s SMs: yielding more SMs slowed the guest (%.2fx)", row[0], row[1], v)
		}
	}
}

func TestFigure17OverheadComparison(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Figure17()
	if err != nil {
		t.Fatal(err)
	}
	var sumF, sumS float64
	for _, row := range tab.Rows {
		f := cellFloat(t, row[2])
		sl := cellFloat(t, row[4])
		sumF += f
		sumS += sl
		if f > 4.5 {
			t.Errorf("%s: FLEP overhead %.1f%% above the 4%% tuning budget", row[0], f)
		}
	}
	meanF, meanS := sumF/8, sumS/8
	if meanS < meanF*2 {
		t.Fatalf("slicing (%.1f%%) not substantially worse than FLEP (%.1f%%)", meanS, meanF)
	}
}

func TestAblations(t *testing.T) {
	s := testSuite(t)
	am, err := s.AblationAmortize()
	if err != nil {
		t.Fatal(err)
	}
	// Overhead decreases with L; drain latency increases.
	prevOv, prevDrain := 1e18, -1.0
	for _, row := range am.Rows {
		ov := cellFloat(t, row[1])
		dr := cellFloat(t, row[2])
		if ov > prevOv+0.05 {
			t.Errorf("overhead not decreasing with L: %v", row)
		}
		if dr < prevDrain {
			t.Errorf("drain latency not increasing with L: %v", row)
		}
		prevOv, prevDrain = ov, dr
	}

	lp, err := s.AblationLeaderPoll()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range lp.Rows {
		if cellFloat(t, row[2]) <= cellFloat(t, row[1]) {
			t.Errorf("%s: all-warps poll not worse than leader poll", row[0])
		}
	}

	oa, err := s.AblationOverheadAware()
	if err != nil {
		t.Fatal(err)
	}
	sawPenalty := false
	for _, row := range oa.Rows {
		if cellFloat(t, row[4]) > 0 {
			sawPenalty = true
		}
	}
	if !sawPenalty {
		t.Error("naive SRT never paid a penalty near break-even")
	}

	if _, err := s.AblationSpatialSize(); err != nil {
		t.Fatal(err)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("hello", 3.14159)
	tab.Note("n=%d", 3)
	out := tab.Format()
	for _, want := range []string{"== x: T ==", "hello", "3.14", "note: n=3", "a", "bb"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

func TestGeneratorsComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, g := range Generators() {
		ids[g.ID] = true
	}
	for _, want := range []string{"table1", "fig1", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"} {
		if !ids[want] {
			t.Errorf("generator %s missing", want)
		}
	}
}

func TestAblationNVLink(t *testing.T) {
	s := testSuite(t)
	tab, err := s.AblationNVLink()
	if err != nil {
		t.Fatal(err)
	}
	// Per benchmark, tuned L and drain latency must shrink as the poll
	// latency drops across interconnect generations.
	lByBench := map[string][]float64{}
	for _, row := range tab.Rows {
		lByBench[row[2]] = append(lByBench[row[2]], cellFloat(t, row[3]))
	}
	for name, ls := range lByBench {
		if len(ls) != 3 {
			t.Fatalf("%s: %d interconnect points", name, len(ls))
		}
		if !(ls[0] > ls[1] && ls[1] > ls[2]) {
			t.Errorf("%s: L not shrinking with faster interconnect: %v", name, ls)
		}
	}
}

func TestExtFFSTriplet(t *testing.T) {
	s := testSuite(t)
	tab, err := s.ExtFFSTriplet()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		w3 := cellFloat(t, row[1])
		w2 := cellFloat(t, row[2])
		w1 := cellFloat(t, row[3])
		if !(w3 > w2 && w2 > w1) {
			t.Errorf("%s: shares not ordered by weight: %v %v %v", row[0], w3, w2, w1)
		}
		if sum := w3 + w2 + w1; sum < 70 || sum > 101 {
			t.Errorf("%s: share sum %.1f%% implausible", row[0], sum)
		}
	}
}

// allocs counts the heap objects and bytes one call of gen allocates.
func allocs(t *testing.T, gen func() (*Table, error)) (objects, bytes uint64, tab *Table) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, tab
}

// regenAllocs counts the heap objects and bytes one regeneration of a table
// allocates, after a first one has filled the system's solo-time cache.
func regenAllocs(t *testing.T, gen func() (*Table, error)) (objects, bytes uint64) {
	t.Helper()
	allocs(t, gen)
	objects, bytes, _ = allocs(t, gen)
	return objects, bytes
}

// TestFigure13AllocationBudget holds one regeneration of Figure 13 — 28
// closed-loop pairs, 400 ms of virtual time each, a rotation every ~200 µs —
// under 10,000 allocations; it made 130,827 when every dispatch allocated
// its gpu.Exec and every relaunch five closures, and 46,602 while every
// launch of some 13,000 allocated its Invocation and two device callbacks.
// A standalone Figure 14 runs the same 28 pairs without the share sampler,
// so what Figure 13 allocates beyond it is the sampler's: 4,847 objects and
// 644,336 bytes while it added to a string-keyed map per observation and
// started a fresh one per 10 ms window, and 2,608 objects and 353,344 bytes
// now that busy time accrues in a slot per kernel and each of the 1,120
// windows builds only its Share map (a header and one group). The ceiling
// on that difference is 2,800 objects and 384 KiB. A Figure 14 right after
// a Figure 13 runs nothing: it reads the runs Figure 13 left, prints the
// same table, and drops them, so the Figure 14 after it runs the study
// again.
func TestFigure13AllocationBudget(t *testing.T) {
	s := testSuite(t)
	o13, b13 := regenAllocs(t, s.Figure13)
	if o13 > 10_000 {
		t.Errorf("Figure 13 allocates %d objects per regeneration, ceiling 10,000", o13)
	}
	o14, b14 := regenAllocs(t, s.Figure14)
	if o13+o14 > 12_000 || b13+b14 > 8<<20 {
		t.Errorf("Figures 13 and 14 allocate %d objects and %d bytes per regeneration, ceilings 12,000 and 8 MB",
			o13+o14, b13+b14)
	}
	if extraO, extraB := int64(o13)-int64(o14), int64(b13)-int64(b14); extraO > 2_800 || extraB > 384<<10 {
		t.Errorf("the share sampler allocates %d objects and %d bytes beyond a standalone Figure 14, ceilings 2,800 and 384 KiB",
			extraO, extraB)
	}
	t.Logf("fig13 %d objects %d bytes, fig14 %d objects %d bytes", o13, b13, o14, b14)

	if _, err := s.Figure13(); err != nil {
		t.Fatal(err)
	}
	oRead, bRead, read := allocs(t, s.Figure14)
	if oRead > 500 || bRead > 64<<10 {
		t.Errorf("Figure 14 after Figure 13 allocates %d objects and %d bytes, ceilings 500 and 64 KB: it ran the study again",
			oRead, bRead)
	}
	oAlone, bAlone, alone := allocs(t, s.Figure14)
	if oAlone <= 500 || bAlone <= 64<<10 {
		t.Errorf("a second Figure 14 in a row allocates %d objects and %d bytes: it read a study it should have run", oAlone, bAlone)
	}
	if read.Format() != alone.Format() {
		t.Errorf("Figure 14 read from Figure 13's runs differs from a standalone one:\n%s\nstandalone:\n%s", read.Format(), alone.Format())
	}
	t.Logf("fig14 after fig13 %d objects %d bytes, standalone %d objects %d bytes", oRead, bRead, oAlone, bAlone)
}

// TestShareSamplerIsObservationOnly is why Figure 14 may read Figure 13's
// runs: for every FFS pair, the share sampler changes no record, no
// completion count and no makespan.
func TestShareSamplerIsObservationOnly(t *testing.T) {
	s := testSuite(t)
	for _, sc := range workload.FairPairs(ffsHorizon) {
		sampled, err := s.Sys.RunFLEP(sc, ffsOptions(10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := s.Sys.RunFLEP(sc, ffsOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(sampled.Shares) == 0 {
			t.Fatalf("%s: the 10 ms sampler took no samples", sc.Name)
		}
		if !reflect.DeepEqual(sampled.Results, plain.Results) || !reflect.DeepEqual(sampled.Items, plain.Items) ||
			!reflect.DeepEqual(sampled.Completions, plain.Completions) || sampled.Makespan != plain.Makespan {
			t.Errorf("%s: the share sampler changed the run: completions %v vs %v, makespan %v vs %v, %d vs %d records",
				sc.Name, sampled.Completions, plain.Completions, sampled.Makespan, plain.Makespan,
				len(sampled.Results), len(plain.Results))
		}
	}
}
