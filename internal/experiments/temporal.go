package experiments

import (
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/workload"
)

// Figure8 regenerates the HPF priority experiment: speedup of the
// high-priority kernel's turnaround under FLEP over the MPS co-run, across
// the 28 pairs. The paper's mean, max (SPMV_NN) and min are Claims rows.
func (s *Suite) Figure8() (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Performance improvement for high-priority kernels (HPF vs MPS)",
		Columns: []string{"pair", "MPS(us)", "FLEP(us)", "speedup"},
	}
	var sum, maxV float64
	minV := 1e18
	pairs := workload.PriorityPairs()
	for _, sc := range pairs {
		mps, err := s.Sys.RunMPS(sc)
		if err != nil {
			return nil, err
		}
		flep, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf"})
		if err != nil {
			return nil, err
		}
		high := sc.Items[1].Bench.Name
		sp := metrics.Speedup(mps.ResultFor(high).Turnaround, flep.ResultFor(high).Turnaround)
		sum += sp
		if sp > maxV {
			maxV = sp
		}
		if sp < minV {
			minV = sp
		}
		t.AddRow(sc.Name, mps.ResultFor(high).Turnaround, flep.ResultFor(high).Turnaround, x(sp))
	}
	t.Note("mean %.1fx, max %.1fx, min %.1fx over %d pairs (paper: mean %gx, max %gx, min %gx)",
		sum/float64(len(pairs)), maxV, minV, len(pairs),
		paper("fig8", "speedup", "mean"), paper("fig8", "speedup", "max"), paper("fig8", "speedup", "min"))
	return t, nil
}

// Figure9 regenerates the delayed-invocation sweep: the high-priority
// speedup as a function of the delay between the low- and high-priority
// launches. Paper: near-linear decay to a plateau at 1 once the delay
// exceeds the low-priority kernel's duration.
func (s *Suite) Figure9() (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "High-priority speedup vs invocation delay",
		Columns: []string{"pair", "delay(us)", "speedup"},
	}
	cases := [][2]string{{"SPMV", "NN"}, {"MM", "PF"}, {"VA", "CFD"}, {"NN", "PL"}}
	for _, c := range cases {
		high, _ := kernels.ByName(c[0])
		low, _ := kernels.ByName(c[1])
		lowSolo, err := s.Sys.SoloTime(low, kernels.Large)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2} {
			delay := time.Duration(frac * float64(lowSolo))
			sc := workload.PriorityPair(high, low, delay)
			mps, err := s.Sys.RunMPS(sc)
			if err != nil {
				return nil, err
			}
			flep, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf"})
			if err != nil {
				return nil, err
			}
			sp := metrics.Speedup(mps.ResultFor(c[0]).Turnaround, flep.ResultFor(c[0]).Turnaround)
			t.AddRow(sc.Name, delay, x(sp))
		}
	}
	t.Note("speedup decays with delay and plateaus near 1 once the delay exceeds the low-priority duration")
	return t, nil
}

// equalPairMetrics runs one equal-priority scenario under MPS and FLEP and
// returns (ANTT_MPS, ANTT_FLEP, STPexec_MPS, STPexec_FLEP). STP uses
// execution time (turnaround minus waiting): Figure 11 measures the
// throughput cost of FLEP's overheads, not of queueing.
func (s *Suite) equalPairMetrics(sc workload.Scenario) (anttM, anttF, stpM, stpF float64, err error) {
	mps, err := s.Sys.RunMPS(sc)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	flep, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf"})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	anttM, anttF = metrics.ANTT(mps.Results), metrics.ANTT(flep.Results)
	stpM = metrics.STP(execOnly(mps.Results))
	stpF = metrics.STP(execOnly(flep.Results))
	return anttM, anttF, stpM, stpF, nil
}

// execOnly takes the waiting out of each run's turnaround, in place: what
// is left is normalized execution time, for throughput accounting.
func execOnly(runs []metrics.KernelRun) []metrics.KernelRun {
	for i := range runs {
		runs[i].Turnaround -= runs[i].Waiting
	}
	return runs
}

// Figure10 regenerates the equal-priority ANTT improvement over MPS across
// the 28 pairs, against the paper's mean (a Claims row).
func (s *Suite) Figure10() (*Table, error) {
	t := &Table{
		ID:      "fig10",
		Title:   "ANTT improvement, equal-priority two-kernel co-runs",
		Columns: []string{"pair", "ANTT-MPS", "ANTT-FLEP", "improvement"},
	}
	sum := 0.0
	pairs := workload.EqualPairs()
	for _, sc := range pairs {
		am, af, _, _, err := s.equalPairMetrics(sc)
		if err != nil {
			return nil, err
		}
		imp := am / af
		sum += imp
		t.AddRow(sc.Name, am, af, x(imp))
	}
	t.Note("mean ANTT improvement %.1fx over %d pairs (paper: %gx average)",
		sum/float64(len(pairs)), len(pairs), paper("fig10", "improvement", "mean"))
	return t, nil
}

// Figure11 regenerates the STP degradation of the same runs: throughput
// sacrificed for responsiveness, against the paper's mean (a Claims row).
func (s *Suite) Figure11() (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "System throughput degradation, equal-priority co-runs",
		Columns: []string{"pair", "STP-MPS", "STP-FLEP", "degradation"},
	}
	sum := 0.0
	pairs := workload.EqualPairs()
	for _, sc := range pairs {
		_, _, sm, sf, err := s.equalPairMetrics(sc)
		if err != nil {
			return nil, err
		}
		deg := 1 - sf/sm
		sum += deg
		t.AddRow(sc.Name, sm, sf, pct(deg))
	}
	t.Note("mean STP degradation %s over %d pairs (paper: ~%g%%)",
		pct(sum/float64(len(pairs))), len(pairs), paper("fig11", "degradation", "mean"))
	return t, nil
}

// Figure12 regenerates the three-kernel co-runs: FLEP's ANTT improvement
// over MPS for 28 triplets, against the kernel-reordering baseline. The
// paper's FLEP mean and max (VA_SPMV_MM) and reordering's small mean are
// Claims rows.
func (s *Suite) Figure12() (*Table, error) {
	t := &Table{
		ID:      "fig12",
		Title:   "ANTT improvement on three-kernel co-runs (FLEP vs reordering)",
		Columns: []string{"triplet", "ANTT-MPS", "ANTT-FLEP", "FLEP-impr", "ANTT-reorder", "reorder-impr"},
	}
	var sumF, sumR, maxF float64
	trips := workload.Triplets()
	for _, sc := range trips {
		mps, err := s.Sys.RunMPS(sc)
		if err != nil {
			return nil, err
		}
		flep, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf"})
		if err != nil {
			return nil, err
		}
		reorder, err := s.Sys.RunReorder(sc)
		if err != nil {
			return nil, err
		}
		am, af, ar := metrics.ANTT(mps.Results), metrics.ANTT(flep.Results), metrics.ANTT(reorder.Results)
		impF, impR := am/af, am/ar
		sumF += impF
		sumR += impR
		if impF > maxF {
			maxF = impF
		}
		t.AddRow(sc.Name, am, af, x(impF), ar, x(impR))
	}
	n := float64(len(trips))
	t.Note("FLEP mean %.1fx, max %.1fx (paper: %gx mean, %gx max for VA_SPMV_MM)",
		sumF/n, maxF, paper("fig12", "FLEP-impr", "mean"), paper("fig12", "FLEP-impr", "max"))
	t.Note("reordering mean improvement %s (paper: ~%s)", pct(sumR/n-1), pct(paper("fig12", "ANTT-MPS", "mean")-1))
	return t, nil
}
