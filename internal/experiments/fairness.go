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

// Figure13 regenerates the FFS GPU-share experiment: closed-loop co-run
// pairs at weight ratio 2:1; the high-priority kernel should hold ~2/3 of
// the GPU and the low-priority kernel ~1/3, with narrow variation.
func (s *Suite) Figure13() (*Table, error) {
	t := &Table{
		ID:      "fig13",
		Title:   "Average GPU share under FFS (weights 2:1)",
		Columns: []string{"pair", "high-share", "low-share", "ratio"},
	}
	var sumHi, sumLo, minR, maxR float64
	minR = 1e18
	pairs := workload.FairPairs(ffsHorizon)
	for _, sc := range pairs {
		res, err := s.Sys.RunFLEP(sc, ffsOptions(10*time.Millisecond))
		if err != nil {
			return nil, err
		}
		hiName := sc.Items[0].Bench.Name
		loName := sc.Items[1].Bench.Name
		hi := metrics.MeanShare(res.Shares, hiName)
		lo := metrics.MeanShare(res.Shares, loName)
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
		t.AddRow(sc.Name, pct(hi), pct(lo), ratio)
	}
	n := float64(len(pairs))
	t.Note("mean shares: high %s, low %s (paper: ~2/3 vs ~1/3); ratio range %.2f-%.2f",
		pct(sumHi/n), pct(sumLo/n), minR, maxR)
	return t, nil
}

// Figure14 regenerates the FFS throughput-degradation experiment with
// max_overhead = 10%: the useful work completed under FFS relative to the
// available GPU time should degrade close to (and bounded near) the budget.
func (s *Suite) Figure14() (*Table, error) {
	t := &Table{
		ID:      "fig14",
		Title:   "Throughput degradation under FFS (max_overhead 10%)",
		Columns: []string{"pair", "useful-work(us)", "horizon(us)", "degradation"},
	}
	sum := 0.0
	pairs := workload.FairPairs(ffsHorizon)
	for _, sc := range pairs {
		res, err := s.Sys.RunFLEP(sc, ffsOptions(0))
		if err != nil {
			return nil, err
		}
		// Useful work = sum over kernels of completions × solo time.
		var useful time.Duration
		for _, item := range sc.Items {
			solo, err := s.Sys.SoloTime(item.Bench, item.Class)
			if err != nil {
				return nil, err
			}
			useful += time.Duration(res.Completions[item.Bench.Name]) * solo
		}
		deg := 1 - useful.Seconds()/ffsHorizon.Seconds()
		sum += deg
		t.AddRow(sc.Name, useful, ffsHorizon, pct(deg))
	}
	t.Note("mean degradation %s with max_overhead=10%% (paper: close to the threshold, small variation)",
		pct(sum/float64(len(pairs))))
	return t, nil
}
