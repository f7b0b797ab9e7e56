package experiments

import (
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/workload"
)

// AblationAmortize sweeps the amortizing factor for NN and reports the
// single-run overhead against the preemption latency it implies: the
// trade-off the offline tuner navigates (§4.1, §7).
func (s *Suite) AblationAmortize() (*Table, error) {
	t := &Table{
		ID:      "ablation-amortize",
		Title:   "Amortizing factor trade-off (NN): overhead vs preemption latency",
		Columns: []string{"L", "single-run-ovh", "drain-latency(us)"},
	}
	nn, _ := kernels.ByName("NN")
	solo, err := s.Sys.SoloTime(nn, kernels.Large)
	if err != nil {
		return nil, err
	}
	par := s.Sys.Par
	in := nn.Input(kernels.Large)
	for _, L := range []int{1, 5, 20, 50, 100, 200, 500, 1000} {
		withL, err := s.Sys.SoloPersistentTime(nn, kernels.Large, L)
		if err != nil {
			return nil, err
		}
		ov := (withL - solo).Seconds() / solo.Seconds()
		// Drain latency model: flag propagation + poll + the expected
		// (L-1)/2-task residual of a uniformly-positioned batch.
		drain := par.FlagPropagation + par.PinnedReadLatency +
			time.Duration(float64(L-1)/2*float64(in.TaskCost))
		t.AddRow(L, pct(ov), drain)
	}
	t.Note("small L: fast preemption, high polling overhead; large L: the reverse — the tuner picks the smallest L under 4%%")
	return t, nil
}

// AblationLeaderPoll compares the paper's leader-thread poll (one thread
// reads temp_P, broadcasts through shared memory) against every warp
// polling independently, which multiplies the PCIe poll traffic by the
// warps per CTA (8 for 256-thread CTAs).
func (s *Suite) AblationLeaderPoll() (*Table, error) {
	t := &Table{
		ID:      "ablation-leaderpoll",
		Title:   "Leader-thread poll vs all-warps poll: single-run overhead at tuned L",
		Columns: []string{"bench", "leader-ovh", "all-warps-ovh"},
	}
	for _, b := range kernels.All() {
		a := s.Sys.Artifacts(b.Name)
		solo, err := s.Sys.SoloTime(b, kernels.Large)
		if err != nil {
			return nil, err
		}
		in := b.Input(kernels.Large)
		leader, err := core.SoloRun(s.Sys.Par, a.Profile, in, a.L)
		if err != nil {
			return nil, err
		}
		par := s.Sys.Par
		par.PinnedReadLatency *= time.Duration(b.ThreadsPerCTA / par.Limits.WarpSize)
		all, err := core.SoloRun(par, a.Profile, in, a.L)
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Name,
			pct((leader-solo).Seconds()/solo.Seconds()),
			pct((all-solo).Seconds()/solo.Seconds()))
	}
	t.Note("the leader-poll optimization keeps the flag check affordable; naive per-warp polling would blow the 4%% budget")
	return t, nil
}

// AblationOverheadAware compares HPF's overhead-aware SRT preemption rule
// with naive SRT (always preempt when remaining time is shorter). The
// interesting regime is a short kernel arriving when the running kernel's
// remaining time barely exceeds the short kernel's: naive SRT preempts and
// pays drain + relaunch for nothing; the overhead-aware rule declines.
func (s *Suite) AblationOverheadAware() (*Table, error) {
	t := &Table{
		ID:      "ablation-overheadaware",
		Title:   "Overhead-aware vs naive SRT preemption near the break-even point",
		Columns: []string{"arrival", "remaining-minus-short(us)", "makespan-aware(us)", "makespan-naive(us)", "naive-penalty(us)"},
	}
	nn, _ := kernels.ByName("NN")
	mm, _ := kernels.ByName("MM")
	// Both policies decide on the *predicted* remaining times, so place
	// the arrivals in prediction space: the break-even window is
	// (0, overhead-estimate) of the running kernel.
	longPred, err := s.Sys.Predict(nn, nn.Input(kernels.Large))
	if err != nil {
		return nil, err
	}
	shortPred, err := s.Sys.Predict(mm, mm.Input(kernels.Small))
	if err != nil {
		return nil, err
	}
	ovh := s.Sys.Artifacts("NN").PreemptOverhead
	var worseNaive int
	// Gaps as multiples of the overhead estimate: above 1.0 both policies
	// preempt; inside (0,1) only naive does; below 0 neither.
	for _, mult := range []float64{2.0, 1.5, 0.8, 0.5, 0.2, -0.5} {
		gapUS := time.Duration(mult * float64(ovh))
		arrival := longPred - shortPred - gapUS
		sc := workload.Scenario{
			Name: "NN_MM_critical",
			Items: []workload.Item{
				{Bench: nn, Class: kernels.Large, Priority: 1, At: 0},
				{Bench: mm, Class: kernels.Small, Priority: 1, At: arrival},
			},
		}
		aware, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf"})
		if err != nil {
			return nil, err
		}
		naive, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf-naive"})
		if err != nil {
			return nil, err
		}
		penalty := naive.Makespan - aware.Makespan
		if penalty > 0 {
			worseNaive++
		}
		t.AddRow(arrival, gapUS, aware.Makespan, naive.Makespan, penalty)
	}
	t.Note("naive SRT lost in %d/6 arrival points; the overhead term only matters near break-even, where it avoids wasted drains", worseNaive)
	return t, nil
}

// AblationSpatialSize contrasts exact-fit spatial yields with modest
// over-provisioning: the guest speeds up, the victim pays more.
func (s *Suite) AblationSpatialSize() (*Table, error) {
	t := &Table{
		ID:      "ablation-spatialsize",
		Title:   "Spatial yield sizing: exact fit vs over-provisioned",
		Columns: []string{"pair", "SMs", "guest-turnaround(us)", "victim-finish(us)"},
	}
	cases := [][2]string{{"NN", "CFD"}, {"SPMV", "PL"}}
	for _, c := range cases {
		high, _ := kernels.ByName(c[0])
		low, _ := kernels.ByName(c[1])
		for _, sms := range []int{0, 8, 12} { // 0 = exact fit (5 SMs for 40 CTAs)
			sc := workload.SpatialPair(high, low)
			res, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf", Spatial: true, SpatialSMs: sms})
			if err != nil {
				return nil, err
			}
			label := sms
			if sms == 0 {
				label = 5
			}
			// The victim is submitted at 0: its turnaround is its finish.
			t.AddRow(sc.Name, label, res.ResultFor(c[0]).Turnaround, res.ResultFor(c[1]).Turnaround)
		}
	}
	t.Note("FLEP exposes the yield size so deployments can trade guest speed against victim degradation (§6.4)")
	return t, nil
}
