package experiments

import (
	"time"

	"flep/internal/core"
	"flep/internal/metrics"
	"flep/internal/workload"
)

// ffsHorizon is long enough for many weighted rounds of every pair.
const ffsHorizon = 400 * time.Millisecond

// ffsOptions are the paper's FFS settings: weight ratio 2:1 and
// max_overhead empirically selected as 10%.
func ffsOptions(shareWindow time.Duration) core.Options {
	return core.Options{
		Policy:      "ffs",
		MaxOverhead: 0.10,
		Weights:     map[int]float64{2: 2, 1: 1},
		ShareWindow: shareWindow,
	}
}

// fairRun is one pair of the paper's FFS study (§6.3) and its co-run under
// ffsOptions.
type fairRun struct {
	sc  workload.Scenario
	res *core.RunResult
}

// fairStudy runs every FairPairs scenario under the paper's FFS settings,
// sampling GPU shares every window (0: no sampler). The sampler only
// observes, so every run's schedule is the same either way.
func (s *Suite) fairStudy(window time.Duration) ([]fairRun, error) {
	pairs := workload.FairPairs(ffsHorizon)
	runs := make([]fairRun, len(pairs))
	for i, sc := range pairs {
		res, err := s.Sys.RunFLEP(sc, ffsOptions(window))
		if err != nil {
			return nil, err
		}
		runs[i] = fairRun{sc, res}
	}
	return runs, nil
}

// Figure13 regenerates the FFS GPU-share experiment: closed-loop co-run
// pairs at weight ratio 2:1; each kernel should hold its weight's share of
// the GPU (the paper's two shares are Claims rows), with narrow variation.
// It always runs the study itself, then leaves it for the next Figure14.
func (s *Suite) Figure13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Average GPU share under FFS (weights 2:1)",
		Columns: []string{"pair", "high-share", "low-share", "ratio"},
	}
	runs, err := s.fairStudy(10 * time.Millisecond)
	if err != nil {
		return nil, err
	}
	var sumHi, sumLo, minR, maxR float64
	minR = 1e18
	for _, r := range runs {
		hiName := r.sc.Items[0].Bench.Name
		loName := r.sc.Items[1].Bench.Name
		hi := metrics.MeanShare(r.res.Shares, hiName)
		lo := metrics.MeanShare(r.res.Shares, loName)
		ratio := 0.0
		if lo > 0 {
			ratio = hi / lo
		}
		sumHi += hi
		sumLo += lo
		if ratio < minR {
			minR = ratio
		}
		if ratio > maxR {
			maxR = ratio
		}
		t.AddRow(r.sc.Name, pct(hi), pct(lo), ratio)
	}
	n := float64(len(runs))
	t.Note("mean shares: high %s, low %s (paper: ~2/3 vs ~1/3); ratio range %.2f-%.2f",
		pct(sumHi/n), pct(sumLo/n), minR, maxR)
	s.fair = runs
	return t, nil
}

// Figure14 regenerates the FFS throughput-degradation experiment with
// max_overhead = 10%: the useful work completed under FFS relative to the
// available GPU time should degrade close to (and bounded near) the budget.
// It reads the study a Figure13 left and drops it, so in paper order the
// 28 pairs run once; with none waiting it runs the study without a sampler.
func (s *Suite) Figure14() (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Throughput degradation under FFS (max_overhead 10%)",
		Columns: []string{"pair", "useful-work(us)", "horizon(us)", "degradation"},
	}
	runs := s.fair
	s.fair = nil
	if runs == nil {
		var err error
		if runs, err = s.fairStudy(0); err != nil {
			return nil, err
		}
	}
	sum := 0.0
	for _, r := range runs {
		// Useful work = sum over kernels of completions × solo time.
		var useful time.Duration
		for _, item := range r.sc.Items {
			solo, err := s.Sys.SoloTime(item.Bench, item.Class)
			if err != nil {
				return nil, err
			}
			useful += time.Duration(r.res.Completions[item.Bench.Name]) * solo
		}
		deg := 1 - useful.Seconds()/ffsHorizon.Seconds()
		sum += deg
		t.AddRow(r.sc.Name, useful, ffsHorizon, pct(deg))
	}
	t.Note("mean degradation %s with max_overhead=10%% (paper: close to the threshold, small variation)",
		pct(sum/float64(len(runs))))
	return t, nil
}
