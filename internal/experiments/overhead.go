package experiments

import (
	"time"

	"flep/internal/kernels"
	"flep/internal/workload"
)

// Figure17 regenerates the single-kernel overhead comparison: the runtime
// overhead of the FLEP-transformed kernel (at its tuned L, never preempted)
// versus kernel slicing at equivalent preemption granularity (sub-kernels
// of L waves, i.e. 120·L CTAs), both relative to the original kernel.
// The paper's two means are Claims rows; slicing is over 10% for several
// benchmarks, much worse for CFD/MD/SPMV/MM.
func (s *Suite) Figure17() (*Table, error) {
	t := &Table{
		ID:      "fig17",
		Title:   "Single-kernel overhead: FLEP vs kernel slicing",
		Columns: []string{"bench", "solo(us)", "FLEP-ovh", "slices", "slicing-ovh"},
	}
	var sumF, sumS float64
	for _, b := range kernels.All() {
		a := s.Sys.Artifacts(b.Name)
		solo, err := s.Sys.SoloTime(b, kernels.Large)
		if err != nil {
			return nil, err
		}
		flep, err := s.Sys.SoloPersistentTime(b, kernels.Large, a.L)
		if err != nil {
			return nil, err
		}
		ovF := (flep - solo).Seconds() / solo.Seconds()

		sliceTasks := 120 * a.L
		sliced, slices, err := s.soloSlicedTime(b, sliceTasks)
		if err != nil {
			return nil, err
		}
		ovS := (sliced - solo).Seconds() / solo.Seconds()
		sumF += ovF
		sumS += ovS
		t.AddRow(b.Name, solo, pct(ovF), slices, pct(ovS))
	}
	n := float64(len(kernels.All()))
	t.Note("mean overhead: FLEP %s (paper: ~%g%%), slicing %s (paper: ~%g%%)",
		pct(sumF/n), paper("fig17", "FLEP-ovh", "mean"), pct(sumS/n), paper("fig17", "slicing-ovh", "mean"))
	t.Note("slicing granularity matched to FLEP's per-CTA batch (sub-kernels of 120·L CTAs)")
	return t, nil
}

// soloSlicedTime runs the benchmark's large input solo under the slicing
// baseline and returns the elapsed time and slice count.
func (s *Suite) soloSlicedTime(b *kernels.Benchmark, sliceTasks int) (time.Duration, int, error) {
	sc := workload.Scenario{
		Name:  b.Name + "_solo_sliced",
		Items: []workload.Item{{Bench: b, Class: kernels.Large, Priority: 1}},
	}
	res, err := s.Sys.RunSliced(sc, sliceTasks)
	if err != nil {
		return 0, 0, err
	}
	r := res.ResultFor(b.Name)
	slices := (b.Input(kernels.Large).Tasks + sliceTasks - 1) / sliceTasks
	return r.Turnaround, slices, nil
}
