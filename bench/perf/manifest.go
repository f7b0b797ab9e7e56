package perf

import "encoding/json"

// RunSeconds is how long the driver lets one run measure.
const RunSeconds = 20

// Manifest renders BENCHMARK.json from the catalogue, so the file the
// driver reads cannot drift from what flepperf prints
// (`flepperf -manifest > BENCHMARK.json`).
func Manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench/cmd/flepperf"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
	}
	for _, w := range Workloads() {
		m.Workloads = append(m.Workloads, workload(w))
	}
	for _, x := range Metrics() {
		if x.Kind == EndToEnd {
			m.EndToEnd = append(m.EndToEnd, bounded{x.Name, x.Unit, x.Better(), x.Rel})
		} else {
			m.PerLayer = append(m.PerLayer, unbounded{x.Name, x.Unit, x.Better()})
		}
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
