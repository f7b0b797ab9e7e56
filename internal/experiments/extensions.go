package experiments

import (
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/transform"
	"flep/internal/workload"
)

// AblationNVLink quantifies the paper's §7 claim: "future communication
// technology between the CPU and GPU, such as NVLink, can dramatically
// reduce the communication latency and hence the overhead incurred by
// FLEP". For three interconnect generations, the offline tuner re-runs on
// the fine-grained kernels: a cheaper flag poll yields a smaller amortizing
// factor (faster preemption) and a lower residual overhead.
func (s *Suite) AblationNVLink() (*Table, error) {
	t := &Table{
		ID:      "ablation-nvlink",
		Title:   "Interconnect sensitivity: tuned L and overhead vs flag-poll latency",
		Columns: []string{"interconnect", "poll(ns)", "bench", "tuned-L", "overhead", "drain-latency(us)"},
	}
	links := []struct {
		name string
		poll time.Duration
	}{
		{"PCIe3 (paper)", 1200 * time.Nanosecond},
		{"NVLink", 300 * time.Nanosecond},
		{"NVLink2", 100 * time.Nanosecond},
	}
	benches := []string{"NN", "PF", "VA"}
	for _, link := range links {
		par := s.Sys.Par
		par.PinnedReadLatency = link.poll
		for _, name := range benches {
			// The poll latency leaves occupancy, and so the profile, alone.
			a := s.Sys.Artifacts(name)
			prof, in := a.Profile, a.Bench.Input(kernels.Large)
			orig, err := core.SoloRun(par, prof, in, 0)
			if err != nil {
				return nil, err
			}
			l, ov, _ := transform.Autotune(func(L int) float64 {
				withL, err := core.SoloRun(par, prof, in, L)
				if err != nil {
					return 1
				}
				return (withL - orig).Seconds() / orig.Seconds()
			}, transform.DefaultOverheadThreshold, transform.DefaultMaxAmortize)
			drain := par.FlagPropagation + par.PinnedReadLatency +
				time.Duration(float64(l+1)/2*float64(in.TaskCost))
			t.AddRow(link.name, link.poll.Nanoseconds(), name, l, pct(ov), drain)
		}
	}
	t.Note("a faster interconnect shrinks the tuned amortizing factor, cutting preemption latency at equal overhead (§7)")
	return t, nil
}

// ExtFFSTriplet extends §6.3.3: the paper elides three-kernel FFS co-runs
// "because they are similar to those of the two-kernel co-runs". This
// extension runs them: three closed-loop clients at weights 3:2:1 should
// hold GPU shares near 1/2, 1/3, 1/6.
func (s *Suite) ExtFFSTriplet() (*Table, error) {
	t := &Table{
		ID:      "ext-ffs-triplet",
		Title:   "FFS three-kernel co-runs (weights 3:2:1) — extension of §6.3.3",
		Columns: []string{"triplet", "w3-share", "w2-share", "w1-share"},
	}
	cases := [][3]string{
		{"MM", "SPMV", "PL"},
		{"NN", "CFD", "MD"},
		{"VA", "PF", "MM"},
	}
	horizon := 300 * time.Millisecond
	var sums [3]float64
	for _, c := range cases {
		a, _ := kernels.ByName(c[0])
		b, _ := kernels.ByName(c[1])
		d, _ := kernels.ByName(c[2])
		sc := workload.Scenario{
			Name:    c[0] + "_" + c[1] + "_" + c[2] + "_fair3",
			Horizon: horizon,
			Items: []workload.Item{
				{Bench: a, Class: kernels.Small, Priority: 3, At: 0, Loop: true},
				{Bench: b, Class: kernels.Small, Priority: 2, At: workload.Eps, Loop: true},
				{Bench: d, Class: kernels.Small, Priority: 1, At: 2 * workload.Eps, Loop: true},
			},
		}
		res, err := s.Sys.RunFLEP(sc, core.Options{
			Policy: "ffs", MaxOverhead: 0.10,
			Weights:     map[int]float64{3: 3, 2: 2, 1: 1},
			ShareWindow: 10 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		var shares [3]float64
		for i, name := range c {
			shares[i] = metrics.MeanShare(res.Shares, name)
			sums[i] += shares[i]
		}
		t.AddRow(sc.Name, pct(shares[0]), pct(shares[1]), pct(shares[2]))
	}
	n := float64(len(cases))
	t.Note("mean shares %s / %s / %s (ideal 50%% / 33%% / 17%%) — consistent with the paper's \"similar to two-kernel\" remark",
		pct(sums[0]/n), pct(sums[1]/n), pct(sums[2]/n))
	return t, nil
}
