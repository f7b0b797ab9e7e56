package core

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"flep/internal/gpu"
	"flep/internal/kernels"
)

// TestConcurrentOfflineMatchesSequential holds the concurrent offline phase
// to the oracle: two systems building at once, and one built with a single
// P (its benchmarks' goroutines interleave on one thread), all reproduce
// every artifact bit of the sequential build the oracle was recorded from.
func TestConcurrentOfflineMatchesSequential(t *testing.T) {
	systems := []*System{NewSystem(gpu.DefaultParams()), NewSystem(gpu.DefaultParams())}
	errs := make([]error, len(systems))
	var wg sync.WaitGroup
	for i, s := range systems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.OfflineAll()
		}()
	}
	wg.Wait()

	one := NewSystem(gpu.DefaultParams())
	prev := runtime.GOMAXPROCS(1)
	err := one.OfflineAll()
	runtime.GOMAXPROCS(prev)
	systems, errs = append(systems, one), append(errs, err)

	for i, s := range systems {
		if errs[i] != nil {
			t.Fatalf("system %d: %v", i, errs[i])
		}
		checkOfflineGolden(t, s)
	}
}

// TestOfflineNamesFirstFailureInInputOrder: when several benchmarks fail,
// the error names the first of them in input order, whichever goroutine
// finished first, and the benchmarks before it are merged as a sequential
// build would have left them.
func TestOfflineNamesFirstFailureInInputOrder(t *testing.T) {
	good, _ := kernels.ByName("VA")
	brokenA := &kernels.Benchmark{Name: "brokenA", Source: "__global__ void k( {", KernelName: "k"}
	brokenB := &kernels.Benchmark{Name: "brokenB", Source: "}", KernelName: "k"}
	s := NewSystem(gpu.DefaultParams())
	err := s.Offline([]*kernels.Benchmark{good, brokenA, brokenB})
	if err == nil || !strings.Contains(err.Error(), "offline brokenA:") {
		t.Fatalf("Offline over [VA, brokenA, brokenB] = %v, want an error naming brokenA", err)
	}
	if s.Artifacts("VA") == nil {
		t.Error("VA, before the failure in input order, was not merged")
	}
	if s.Artifacts("brokenA") != nil || s.Artifacts("brokenB") != nil {
		t.Error("a failed benchmark has artifacts")
	}
}

// TestOfflineRefusesMissingKernel: a source that parses but declares no
// __global__ kernel of the benchmark's name fails that benchmark's offline
// phase with an error naming it, and does not take the process down.
func TestOfflineRefusesMissingKernel(t *testing.T) {
	b := &kernels.Benchmark{Name: "nokernel", Source: "__global__ void other() {}", KernelName: "k"}
	err := NewSystem(gpu.DefaultParams()).Offline([]*kernels.Benchmark{b})
	if err == nil || !strings.Contains(err.Error(), "offline nokernel:") {
		t.Fatalf("Offline over a source without kernel k = %v, want an error naming nokernel", err)
	}
}

// TestTrainingFeaturesArePredictFeatures: the duration model is trained on
// the features Predict describes the same input by, static shared memory
// included (PF and MM declare some; training once saw zero for them).
func TestTrainingFeaturesArePredictFeatures(t *testing.T) {
	s := testSystem(t)
	shared := 0
	for _, b := range kernels.All() {
		a := s.Artifacts(b.Name)
		samples := trainingSamples(newProbe(s.Par), a)
		for i, smp := range samples {
			in := b.ScaledInput(float64(i%100+1)/100, int64(i))
			if want := a.features(in); smp.F != want {
				t.Fatalf("%s sample %d: trained on %+v, Predict sees %+v", b.Name, i, smp.F, want)
			}
		}
		if mean := a.Model.State().Mean[3]; mean != float64(a.Resources.StaticSharedBytes) {
			t.Errorf("%s: model trained on %v shared bytes, the kernel declares %d",
				b.Name, mean, a.Resources.StaticSharedBytes)
		}
		if a.Resources.StaticSharedBytes > 0 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no benchmark declares shared memory: the shared-bytes feature went untested")
	}
}

// TestOfflineAllocationBudget holds one OfflineAll under 384 KiB and 2,600
// objects. It was 8.8 MB while NoiseAt allocated a fresh 5 KB generator for
// each of its 1,200 draws (it reseeds pooled ones now), 2.06 MB and 22,880
// objects while each of the phase's 1,690 probe simulations built its own
// engine, device and callbacks (each kernel has one probe now), and 627 KB
// and 6,645 objects while the phase compiled every kernel to a preemptable
// form no launch ran (it does not compile now). What is left is the parsed
// programs, the training sets and the models. The race detector drops
// pooled items on purpose, so it skips there.
func TestOfflineAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops items under the race detector")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := NewSystem(gpu.DefaultParams()).OfflineAll(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling, objects = 384 << 10, 2600
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Errorf("OfflineAll allocates %d bytes, ceiling %d", got, ceiling)
	}
	if got := after.Mallocs - before.Mallocs; got > objects {
		t.Errorf("OfflineAll allocates %d objects, ceiling %d", got, objects)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" {
				return kv.Value == "true"
			}
		}
	}
	return false
}
