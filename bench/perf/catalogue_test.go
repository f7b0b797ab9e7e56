package perf

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is what the driver reads; the catalogue is what flepperf
// prints. They must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(Workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(b.Workloads), len(Workloads()))
	}
	for i, w := range Workloads() {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalogue %+v", i, b.Workloads[i], w)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %s: name or why (%d chars) outside the contract's limits", w.Name, len(w.Why))
		}
	}
	var e2e, layer []Metric
	for _, m := range Metrics() {
		if m.Kind == EndToEnd {
			e2e = append(e2e, m)
		} else {
			layer = append(layer, m)
		}
	}
	if len(b.EndToEnd) != len(e2e) || len(b.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json has %d end_to_end and %d per_layer metrics, the catalogue %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(e2e), len(layer))
	}
	for i, m := range e2e {
		got := b.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better() || got.Bound != m.Rel {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, catalogue %s %s %s %v", i, got, m.Name, m.Unit, m.Better(), m.Rel)
		}
		if m.Rel <= 0 || m.Rel > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Rel)
		}
	}
	for i, m := range layer {
		got := b.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better() {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, catalogue %s %s %s", i, got, m.Name, m.Unit, m.Better())
		}
	}
	if len(layer) > 128 || len(e2e) > 16 {
		t.Errorf("%d per_layer / %d end_to_end metrics exceed the contract's 128 / 16", len(layer), len(e2e))
	}
}

func TestCatalogueNamesAreUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Metrics() {
		if seen[m.Name] {
			t.Errorf("metric %s appears twice", m.Name)
		}
		seen[m.Name] = true
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q outside the contract's character set", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q outside the contract's character set", m.Name, m.Unit)
		}
	}
	if !seen["setup_s"] {
		t.Error("the contract requires a setup_s metric")
	}
}

// A timed run reports exactly the end_to_end metrics and a traced run
// exactly the per_layer ones, whatever the workload measured.
func TestResultLineCarriesTheRightMetricSet(t *testing.T) {
	for _, traced := range []bool{false, true} {
		o := &Outcome{Traced: traced, Values: Values{"launches_per_s": 1, "hp_antt": 2, "sim.ns_per_event": 3}}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := o.WriteResultLine(w); err != nil {
			t.Fatal(err)
		}
		w.Close()
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.NewDecoder(r).Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Attempted < 1 {
			t.Errorf("attempted = %d, the contract wants at least 1", line.Attempted)
		}
		for _, m := range Metrics() {
			_, present := line.Metrics[m.Name]
			if want := (m.Kind == EndToEnd) != traced; present != want {
				t.Errorf("traced=%v: metric %s present=%v, want %v", traced, m.Name, present, want)
			}
		}
	}
}
