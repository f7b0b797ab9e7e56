package experiments

import "flep/internal/workload"

// Figure1 regenerates the motivation experiment: the slowdown of the
// high-priority kernel A (small input) when it must wait for B (large
// input) under the default MPS co-run, across the 28 pairs. The paper's
// largest slowdown is a Claims row.
func (s *Suite) Figure1() (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Slowdown of high-priority kernels under MPS (no preemption)",
		Columns: []string{"pair", "A-turnaround(us)", "A-alone(us)", "slowdown"},
	}
	maxSlow := 0.0
	sum := 0.0
	pairs := workload.PriorityPairs()
	for _, sc := range pairs {
		res, err := s.Sys.RunMPS(sc)
		if err != nil {
			return nil, err
		}
		r := res.ResultFor(sc.Items[1].Bench.Name)
		slow := r.NTT()
		if slow > maxSlow {
			maxSlow = slow
		}
		sum += slow
		t.AddRow(sc.Name, r.Turnaround, r.Alone, x(slow))
	}
	t.Note("max slowdown %.1fx (paper: up to %gx); mean %.1fx over %d pairs",
		maxSlow, paper("fig1", "slowdown", "max"), sum/float64(len(pairs)), len(pairs))
	return t, nil
}
