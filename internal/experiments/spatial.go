package experiments

import (
	"fmt"
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/workload"
)

// Figure15 regenerates the spatial-preemption experiment: for each
// high-priority benchmark (trivial input) averaged over all low-priority
// co-runners (large input), the preemption overhead (T_FLEP − T_org)/T_org
// under spatial preemption versus temporal (all-SM) preemption, and the
// reduction. The paper's mean and largest (NN) reductions are Claims rows.
func (s *Suite) Figure15() (*Table, error) {
	t := &Table{
		ID:      "fig15",
		Title:   "Preemption overhead reduction through spatial preemption",
		Columns: []string{"high-prio bench", "temporal-ovh", "spatial-ovh", "reduction"},
	}
	var sumRed float64
	var maxRed float64
	var maxName string
	for _, high := range kernels.All() {
		var ovT, ovS float64
		n := 0
		for _, low := range kernels.All() {
			if low.Name == high.Name {
				continue
			}
			sc := workload.SpatialPair(high, low)
			org, err := s.Sys.RunMPS(sc)
			if err != nil {
				return nil, err
			}
			temporal, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf"})
			if err != nil {
				return nil, err
			}
			spatial, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf", Spatial: true})
			if err != nil {
				return nil, err
			}
			ovT += (temporal.Makespan - org.Makespan).Seconds() / org.Makespan.Seconds()
			ovS += (spatial.Makespan - org.Makespan).Seconds() / org.Makespan.Seconds()
			n++
		}
		ovT /= float64(n)
		ovS /= float64(n)
		red := 0.0
		if ovT > 0 {
			red = 1 - ovS/ovT
		}
		sumRed += red
		if red > maxRed {
			maxRed = red
			maxName = high.Name
		}
		t.AddRow(high.Name, pct(ovT), pct(ovS), pct(red))
	}
	t.Note("mean reduction %s, max %s (%s) (paper: %g%% mean, up to %g%% for NN)",
		pct(sumRed/float64(len(kernels.All()))), pct(maxRed), maxName,
		paper("fig15", "reduction", "mean"), paper("fig15", "reduction", "max"))
	return t, nil
}

// Figure16 regenerates the over-provisioning case study: a high-priority
// kernel launching 16 CTAs needs only 2 SMs, but yielding more SMs spreads
// its CTAs and improves its performance, up to a modest bound: the
// paper's largest speedup over the 2-SM baseline is a Claims row.
func (s *Suite) Figure16() (*Table, error) {
	t := &Table{
		ID:      "fig16",
		Title:   "High-priority kernel speedup from yielding more SMs than needed",
		Columns: []string{"case", "yielded-SMs", "turnaround(us)", "speedup-vs-2SM"},
	}
	cases := [][2]string{{"NN", "CFD"}, {"NN", "PF"}, {"MD", "CFD"}, {"MD", "PF"}}
	sweeps := []int{2, 3, 4, 6, 8, 10, 12}
	var maxSp float64
	for _, c := range cases {
		high, _ := kernels.ByName(c[0])
		low, _ := kernels.ByName(c[1])
		var base time.Duration
		for _, sms := range sweeps {
			exec, err := s.spatialGuestExecTime(high, low, sms)
			if err != nil {
				return nil, err
			}
			if sms == 2 {
				base = exec
			}
			sp := base.Seconds() / exec.Seconds()
			if sp > maxSp {
				maxSp = sp
			}
			t.AddRow(c[0]+"_"+c[1], sms, exec, x(sp))
		}
	}
	t.Note("largest speedup over the baseline %.2fx (paper: ≈%gx)", maxSp, paper("fig16", "speedup-vs-2SM", "max"))
	t.Note("speedup measured on the guest's execution time (drain wait excluded, as it is identical across yields)")
	return t, nil
}

// spatialGuestExecTime runs low (large) + a 16-CTA high-priority guest,
// forcing the spatial yield to the given SM count, and returns the guest's
// execution time (turnaround minus drain wait).
func (s *Suite) spatialGuestExecTime(high, low *kernels.Benchmark, sms int) (time.Duration, error) {
	sc := workload.SpatialPair(high, low)
	// The paper's case study launches 16 CTAs (2 SMs at full occupancy).
	sc.Items[1].TasksOverride = 16
	res, err := s.Sys.RunFLEP(sc, core.Options{Policy: "hpf", Spatial: true, SpatialSMs: sms})
	if err != nil {
		return 0, err
	}
	r := res.ResultFor(high.Name)
	if r == nil {
		return 0, fmt.Errorf("experiments: %s never completed", high.Name)
	}
	return r.Turnaround - r.Waiting, nil
}
