package core

import (
	"runtime"
	"testing"
	"time"

	"flep/internal/flepruntime"
	"flep/internal/kernels"
	"flep/internal/workload"
)

func TestKernelRunsNormalization(t *testing.T) {
	s := testSystem(t)
	va, _ := kernels.ByName("VA")
	nn, _ := kernels.ByName("NN")
	sc := workload.EqualPair(va, nn)
	res, err := s.RunMPS(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("runs = %d", len(res.Results))
	}
	for _, r := range res.Results {
		if r.Alone <= 0 || r.Turnaround < r.Alone {
			t.Fatalf("run %+v: turnaround below solo time", r)
		}
	}
}

// A scenario that runs one kernel on two inputs is normalized by two
// baselines: looking the class up by kernel name gave both runs the same
// one, and the pair an ANTT some twenty times too large.
func TestResultsNormalizeEachByItsOwnClass(t *testing.T) {
	s := testSystem(t)
	va, _ := kernels.ByName("VA")
	sc := workload.PriorityPair(va, va, 0) // VA small at high priority over VA large
	res, err := s.RunFLEP(sc, Options{Policy: "hpf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 || len(res.Items) != 2 {
		t.Fatalf("results = %d, items = %d", len(res.Results), len(res.Items))
	}
	for i, r := range res.Results {
		item := sc.Items[res.Items[i]]
		want, err := s.SoloTime(va, item.Class)
		if err != nil {
			t.Fatal(err)
		}
		if r.Alone != want {
			t.Errorf("VA %s normalized by %v, want its own solo time %v", item.Class, r.Alone, want)
		}
		if r.Name != item.Bench.Name || r.Turnaround < r.Waiting {
			t.Errorf("VA %s: record %+v does not carry its launch", item.Class, r)
		}
	}
	if res.Items[0] == res.Items[1] {
		t.Fatal("both results ran one item; the test would be vacuous")
	}
	// An overridden task count has no calibrated baseline.
	sc.Items[0].TasksOverride = 16
	if res, err = s.RunFLEP(sc, Options{Policy: "hpf"}); err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		item := sc.Items[res.Items[i]]
		if overridden := item.TasksOverride != 0; overridden != (r.Alone == 0) {
			t.Errorf("VA %s (override %d) normalized by %v", item.Class, item.TasksOverride, r.Alone)
		}
	}
}

func TestSoloPersistentSlowerThanOriginal(t *testing.T) {
	s := testSystem(t)
	for _, name := range []string{"VA", "CFD"} {
		b, _ := kernels.ByName(name)
		a := s.Artifacts(name)
		orig, err := s.SoloTime(b, kernels.Large)
		if err != nil {
			t.Fatal(err)
		}
		pers, err := s.SoloPersistentTime(b, kernels.Large, a.L)
		if err != nil {
			t.Fatal(err)
		}
		if pers <= orig {
			t.Fatalf("%s: persistent (%v) not slower than original (%v)", name, pers, orig)
		}
		overhead := (pers - orig).Seconds() / orig.Seconds()
		if overhead >= 0.045 {
			t.Fatalf("%s: overhead %.2f%% above the tuning budget", name, overhead*100)
		}
	}
}

func TestArtifactTransformedSourceValid(t *testing.T) {
	s := testSystem(t)
	for _, b := range kernels.All() {
		a := s.Artifacts(b.Name)
		if a.Info.Mode.String() != "spatial" {
			t.Errorf("%s: artifacts built in %v mode, want spatial", b.Name, a.Info.Mode)
		}
		if a.Transformed.Kernel(a.Info.Preemptable) == nil {
			t.Errorf("%s: preemptable kernel missing from transformed program", b.Name)
		}
	}
}

func TestResultForMissing(t *testing.T) {
	r := &RunResult{}
	if r.ResultFor("nope") != nil {
		t.Fatal("ResultFor on empty result")
	}
}

func TestFigure9StyleDelayBeyondCompletion(t *testing.T) {
	s := testSystem(t)
	spmv, _ := kernels.ByName("SPMV")
	nn, _ := kernels.ByName("NN")
	nnSolo, err := s.SoloTime(nn, kernels.Large)
	if err != nil {
		t.Fatal(err)
	}
	// High-priority kernel arrives after the low one already finished:
	// speedup must be ≈ 1 (nothing to preempt).
	sc := workload.PriorityPair(spmv, nn, nnSolo+time.Millisecond)
	mps, err := s.RunMPS(sc)
	if err != nil {
		t.Fatal(err)
	}
	flep, err := s.RunFLEP(sc, Options{Policy: "hpf"})
	if err != nil {
		t.Fatal(err)
	}
	ratio := mps.ResultFor("SPMV").Turnaround.Seconds() / flep.ResultFor("SPMV").Turnaround.Seconds()
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("speedup with idle GPU = %.2f, want ≈1", ratio)
	}
}

// ffsTenants builds one closed-loop small-input FFS tenant per name, the
// i-th at priority (and so share weight) prios[i], arriving Eps apart.
func ffsTenants(t *testing.T, horizon time.Duration, names []string, prios []int) workload.Scenario {
	t.Helper()
	sc := workload.Scenario{Name: "ffs-tenants", Horizon: horizon}
	for i, name := range names {
		b, err := kernels.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Items = append(sc.Items, workload.Item{
			Bench: b, Class: kernels.Small, Priority: prios[i],
			At: time.Duration(i) * workload.Eps, Loop: true,
		})
	}
	return sc
}

// TestFFSEveryTenantCompletes is the regression test for FFS starving a
// tenant whose single task outlasts its epoch: a drain discards the
// fraction of a task in flight, so an epoch shorter than a relaunch plus
// one task banked nothing and the kernel rotated on its last tasks for as
// long as anyone else was queued. CFD's and MD's small inputs have the
// suite's longest tasks; at the lowest weight each completed no launch at
// all, a fact the share column of ext-ffs-triplet's NN_CFD_MD row hid.
func TestFFSEveryTenantCompletes(t *testing.T) {
	s := testSystem(t)
	for _, slow := range []string{"CFD", "MD"} {
		sc := ffsTenants(t, 100*time.Millisecond, []string{slow, "PF", "NN", "VA"}, []int{1, 2, 3, 4})
		res, err := s.RunFLEP(sc, Options{Policy: "ffs"})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Completions[slow]; n < 10 {
			t.Errorf("%s at weight 1 of 10 completed %d launches in 100 ms, want at least 10 (all: %v)", slow, n, res.Completions)
		}
	}
	// ExtFFSTriplet's NN_CFD_MD scenario.
	sc := ffsTenants(t, 300*time.Millisecond, []string{"NN", "CFD", "MD"}, []int{3, 2, 1})
	res, err := s.RunFLEP(sc, Options{Policy: "ffs", MaxOverhead: 0.10, Weights: map[int]float64{3: 3, 2: 2, 1: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"NN", "CFD", "MD"} {
		if res.Completions[name] == 0 {
			t.Errorf("%s completed no launch in 300 ms of NN_CFD_MD at weights 3:2:1 (all: %v)", name, res.Completions)
		}
	}
}

// mallocs counts the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestClosedLoopRelaunchAllocationBudget pins what RunFLEP's driver pays to
// carry a closed-loop client over one completion: the difference between a
// 100 ms and a 300 ms run of Figure 13's VA_NN pair, divided by the launches
// the longer run completed beyond the shorter. Nothing is left: it was three,
// the relaunch's Invocation and the two device callbacks bound to it, until
// an item's launches alternated between two invocations recycled in place,
// with their callbacks bound once. The FFS rotations in between — five a
// launch here — redispatch into the Exec the invocation owns, and the item's
// done, submit and finish closures are built once per run. Results doubling
// its backing array rounds down to nothing at this length.
func TestClosedLoopRelaunchAllocationBudget(t *testing.T) {
	s := testSystem(t)
	va, _ := kernels.ByName("VA")
	nn, _ := kernels.ByName("NN")
	opt := Options{Policy: "ffs", MaxOverhead: 0.10, Weights: map[int]float64{2: 2, 1: 1}}
	run := func(horizon time.Duration) (allocs uint64, launches int) {
		allocs = mallocs(func() {
			res, err := s.RunFLEP(workload.FairPair(va, nn, horizon), opt)
			if err != nil {
				t.Fatal(err)
			}
			launches = len(res.Results)
		})
		return allocs, launches
	}
	run(10 * time.Millisecond) // solo baselines and the model's lazy state
	a1, n1 := run(100 * time.Millisecond)
	a2, n2 := run(300 * time.Millisecond)
	if n2-n1 < 100 {
		t.Fatalf("%d launches in 100 ms and %d in 300 ms: too few to divide by", n1, n2)
	}
	const ceiling = 0
	if got := (a2 - a1) / uint64(n2-n1); got > ceiling {
		t.Errorf("a closed-loop relaunch allocates %d times (%d allocations over %d launches), ceiling %d",
			got, a2-a1, n2-n1, ceiling)
	}
}

// TestNewInvocationInRecycles holds NewInvocationIn to NewInvocation: storage
// the runtime has released, recycled for a launch without a budget or an L
// override, carries exactly what fresh storage would, and storage the runtime
// still holds is refused without being touched.
func TestNewInvocationInRecycles(t *testing.T) {
	st, err := testSystem(t).NewStack(Options{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := kernels.ByName("VA")
	nn, _ := kernels.ByName("NN")
	first := Launch{Bench: va, Class: kernels.Large, Priority: 2, Budget: time.Millisecond, Dependent: true, L: 3}
	next := Launch{Bench: nn, Class: kernels.Small, Priority: 1}
	var v flepruntime.Invocation
	if err := st.NewInvocationIn(&v, first); err != nil {
		t.Fatal(err)
	}
	if err := st.RT.Submit(&v); err != nil {
		t.Fatal(err)
	}
	if err := st.NewInvocationIn(&v, next); err == nil || v.Kernel != "VA" || v.ID != 1 {
		t.Fatalf("recycling a running invocation: err %v, kernel %s, id %d", err, v.Kernel, v.ID)
	}
	st.Eng.Run()
	if err := st.NewInvocationIn(&v, next); err != nil {
		t.Fatal(err)
	}
	fresh, err := st.NewInvocation(next)
	if err != nil {
		t.Fatal(err)
	}
	type launchFields struct {
		ID, Priority, Tasks, L, Preemptions int
		Kernel                              string
		TaskCost, Deadline, Te, Tw, Tr      time.Duration
		WorkingSet                          int64
		Dependent, Finish                   bool
	}
	fields := func(v *flepruntime.Invocation) launchFields {
		return launchFields{v.ID, v.Priority, v.Tasks, v.L, v.Preemptions, v.Kernel,
			v.TaskCost, v.Deadline, v.Te, v.Tw, v.Tr, v.WorkingSet, v.Dependent, v.OnFinish != nil}
	}
	if got, want := fields(&v), fields(fresh); got != want || v.Profile != fresh.Profile || v.State() != fresh.State() {
		t.Errorf("recycled %+v (%v), fresh %+v (%v)", got, v.State(), want, fresh.State())
	}
}

// A closed-loop item resubmits until the horizon, so without a positive one
// the run never ends: horizon 0 used to mean "run to drain" and grew without
// bound, a negative one ran each item once and reported it as a result.
// Every driver refuses both before it schedules anything.
func TestLoopWithoutPositiveHorizonIsAnError(t *testing.T) {
	s := testSystem(t)
	va, _ := kernels.ByName("VA")
	nn, _ := kernels.ByName("NN")
	for _, horizon := range []time.Duration{0, -5 * time.Millisecond} {
		sc := workload.FairPair(va, nn, horizon)
		for name, run := range map[string]func() (*RunResult, error){
			"RunFLEP":    func() (*RunResult, error) { return s.RunFLEP(sc, Options{Policy: "ffs"}) },
			"RunMPS":     func() (*RunResult, error) { return s.RunMPS(sc) },
			"RunReorder": func() (*RunResult, error) { return s.RunReorder(sc) },
			"RunSliced":  func() (*RunResult, error) { return s.RunSliced(sc, 0) },
		} {
			if res, err := run(); err == nil {
				t.Errorf("%s ran a closed-loop pair with horizon %v: %d results", name, horizon, len(res.Results))
			}
		}
	}
	// An open-loop scenario still runs to drain with no horizon.
	if _, err := s.RunFLEP(workload.EqualPair(va, nn), Options{}); err != nil {
		t.Errorf("open-loop pair without a horizon: %v", err)
	}
}
