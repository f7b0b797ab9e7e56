package perf

import (
	"testing"
	"time"
)

// failedExcept lists failed checks other than the named one (a run this
// short cannot support a p99).
func failedExcept(o *Outcome, skip string) []Check {
	var out []Check
	for _, c := range o.Checks {
		if !c.OK && c.Name != skip {
			out = append(out, c)
		}
	}
	return out
}

func TestTimedRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real servers for a few seconds")
	}
	for _, workload := range []string{LaunchTrivial, LaunchOverload, ReplayWhatIf} {
		o, err := Run(workload, 7, 1300*time.Millisecond, false)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if f := failedExcept(o, "p99_supported"); len(f) > 0 {
			t.Errorf("%s: failed checks %+v", workload, f)
		}
		if o.Failed != 0 || o.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d", workload, o.Attempted, o.Failed)
		}
		for _, m := range Metrics() {
			if m.Name == "launch_p99_us" {
				continue // 50 ms windows hold too few launches for a p99
			}
			if m.Kind == EndToEnd && !(o.Values[m.Name] > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, m.Name, o.Values[m.Name])
			}
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := Run("no_such_workload", 1, time.Second, false); err == nil {
		t.Error("an unknown workload ran")
	}
}

func TestManifestParses(t *testing.T) {
	data, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, the contract allows 64 KiB", len(data))
	}
}
