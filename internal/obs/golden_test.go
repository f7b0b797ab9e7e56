package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// populate builds a registry with a representative instrument mix. The
// order slice permutes family registration order, so two registries
// populated in different orders must still render identically — the
// exposition is sorted, never insertion-ordered.
func populate(order []int) *Registry {
	reg := NewRegistry()
	fams := []func(){
		func() {
			reg.Counter("flep_golden_launches_total", "Launches by outcome", "outcome", "completed").Add(41)
			reg.Counter("flep_golden_launches_total", "Launches by outcome", "outcome", "rejected").Add(3)
		},
		func() {
			reg.Gauge("flep_golden_queue_depth", "Pending launches").Set(7)
		},
		func() {
			h := reg.Histogram("flep_golden_wait_seconds", "Admission wait", []float64{0.001, 0.01, 0.1})
			h.Observe(0.0004)
			h.Observe(0.02)
			h.Observe(2.5)
		},
		func() {
			reg.GaugeFunc("flep_golden_uptime_ratio", "Constant for the golden file", func() float64 { return 0.5 })
		},
	}
	for _, i := range order {
		fams[i]()
	}
	return reg
}

// TestWritePrometheusGolden pins the exposition byte for byte against
// a checked-in golden file and proves registration order cannot leak
// into it. Run with -update to regenerate after deliberate format
// changes.
func TestWritePrometheusGolden(t *testing.T) {
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	var rendered [][]byte
	for _, order := range orders {
		var plain, b bytes.Buffer
		if err := populate(order).WritePrometheus(&plain); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := RelabelText(&b, &plain, "device", "0"); err != nil {
			t.Fatalf("RelabelText: %v", err)
		}
		rendered = append(rendered, b.Bytes())
	}
	for i := 1; i < len(rendered); i++ {
		if !bytes.Equal(rendered[0], rendered[i]) {
			t.Fatalf("registration order %v leaked into the exposition:\n--- order %v ---\n%s\n--- order %v ---\n%s",
				orders[i], orders[0], rendered[0], orders[i], rendered[i])
		}
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, rendered[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/obs -run Golden -update` after deliberate format changes): %v", err)
	}
	if !bytes.Equal(rendered[0], want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", rendered[0], want)
	}
}
