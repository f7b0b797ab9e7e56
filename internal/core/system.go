// Package core assembles FLEP: the offline phase (scan each kernel's
// resources, tune its amortizing factor, train its duration model, profile
// its preemption overhead; the device runs profiles, so nothing compiles)
// and the online phase (run co-run scenarios under the FLEP runtime or
// under the baselines).
package core

import (
	"fmt"
	"sync"
	"time"

	"flep/internal/cudalite"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/perfmodel"
	"flep/internal/transform"
)

// Artifacts is the offline-phase output for one benchmark kernel. It holds
// no compiled form: transform.TransformKernel makes one from Program.
type Artifacts struct {
	Bench   *kernels.Benchmark
	Profile *gpu.KernelProfile
	// Program is the parsed MiniCUDA translation unit; Resources is its
	// kernel's resource scan.
	Program   *cudalite.Program
	Resources transform.Resources
	// L is the tuned amortizing factor; TunedOverhead its measured
	// single-run overhead; TuneOK whether the 4% constraint was met.
	L             int
	TunedOverhead float64
	TuneOK        bool
	// Model predicts invocation durations from launch features.
	Model *perfmodel.Model
	// PreemptOverhead is the profiled mean preemption overhead (§4.2).
	PreemptOverhead time.Duration
}

// System is a FLEP deployment: device parameters plus per-kernel offline
// artifacts, and the one table of solo baselines every driver normalizes
// a finished launch by (SoloTime, Stack.Finished).
type System struct {
	Par  gpu.Params
	arts map[string]*Artifacts
	solo map[soloKey]time.Duration
}

type soloKey struct {
	bench string
	class kernels.InputClass
}

// NewSystem builds a system with the given device parameters (use
// gpu.DefaultParams() for the paper's K40 model).
func NewSystem(par gpu.Params) *System {
	return &System{
		Par:  par,
		arts: map[string]*Artifacts{},
		solo: map[soloKey]time.Duration{},
	}
}

// Artifacts returns the offline artifacts for a benchmark, or nil before
// Offline has processed it.
func (s *System) Artifacts(name string) *Artifacts { return s.arts[name] }

// Clone returns a system sharing this one's offline artifacts but with its
// own maps. Predict only reads; the one write is SoloTime storing the solo
// baseline of a benchmark the offline phase did not process, so with a
// Clone each, independent schedulers (e.g. fleet shards, each on its own
// goroutine) never race on that map. Artifacts are immutable after
// Offline, so sharing the values is safe; run the offline phase once and
// Clone per shard instead of paying it N times.
func (s *System) Clone() *System {
	c := &System{
		Par:  s.Par,
		arts: make(map[string]*Artifacts, len(s.arts)),
		solo: make(map[soloKey]time.Duration, len(s.solo)),
	}
	for k, v := range s.arts {
		c.arts[k] = v
	}
	for k, v := range s.solo {
		c.solo[k] = v
	}
	return c
}

// Offline runs the complete offline phase for the benchmarks: resource
// scan and occupancy, amortizing-factor tuning (threshold 4%), performance
// model training (100 random inputs), and preemption-overhead profiling
// (50 runs). Each benchmark's phase is independent of the others', so each
// builds on its own goroutine; nothing writes the system's tables until
// all have joined, and then the results merge in input order. An error
// names the first benchmark in input order that failed, and the ones
// before it are merged, as if they had been built one after another.
func (s *System) Offline(benchs []*kernels.Benchmark) error {
	type built struct {
		a     *Artifacts
		solos []time.Duration
		err   error
	}
	out := make([]built, len(benchs))
	var wg sync.WaitGroup
	for i, b := range benchs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].a, out[i].solos, out[i].err = buildArtifacts(s.Par, b)
		}()
	}
	wg.Wait()
	for i, b := range benchs {
		if out[i].err != nil {
			return fmt.Errorf("core: offline %s: %w", b.Name, out[i].err)
		}
		s.arts[b.Name] = out[i].a
		for _, c := range kernels.Classes() {
			s.solo[soloKey{b.Name, c}] = out[i].solos[c]
		}
	}
	return nil
}

// OfflineAll runs Offline for the full benchmark suite.
func (s *System) OfflineAll() error { return s.Offline(kernels.All()) }

// buildArtifacts runs the offline phase for b on a device with parameters
// par. It returns the artifacts and b's solo baselines (the ANTT/STP
// denominators), indexed by input class: they are offline artifacts too,
// so for a processed benchmark SoloTime never simulates, on the system or
// on a Clone of it. Every probe simulation of the phase runs on one probe,
// one after another.
func buildArtifacts(par gpu.Params, b *kernels.Benchmark) (*Artifacts, []time.Duration, error) {
	prog, res, err := b.Scan()
	if err != nil {
		return nil, nil, err
	}
	profile, err := b.ProfileOf(res, par.Limits)
	if err != nil {
		return nil, nil, err
	}
	a := &Artifacts{Bench: b, Profile: profile, Program: prog, Resources: res}
	p := newProbe(par)
	solos := make([]time.Duration, len(kernels.Classes()))
	for _, c := range kernels.Classes() {
		solos[c] = simSolo(p, profile, b.Input(c), 0)
	}

	// Offline tuning: smallest L with single-run overhead under 4%,
	// measured on the large input (§4.1).
	large := b.Input(kernels.Large)
	orig := solos[kernels.Large]
	a.L, a.TunedOverhead, a.TuneOK = transform.Autotune(func(L int) float64 {
		t := simSolo(p, profile, large, L)
		return (t - orig).Seconds() / orig.Seconds()
	}, transform.DefaultOverheadThreshold, transform.DefaultMaxAmortize)

	model, err := perfmodel.Train(trainingSamples(p, a), perfmodel.DefaultLambda)
	if err != nil {
		return nil, nil, err
	}
	a.Model = model

	// Preemption-overhead profiling: 50 preempt+resume runs at varying
	// points; the mean is the online estimate (§4.2).
	var prof perfmodel.OverheadProfile
	for i := 0; i < perfmodel.DefaultOverheadRuns; i++ {
		frac := float64(i+1) / float64(perfmodel.DefaultOverheadRuns+1)
		in := b.ScaledInput(0.05+0.1*frac, int64(1000+i))
		solo := simSolo(p, profile, in, a.L)
		total := simPreemptResume(p, profile, in.Tasks, in.TaskCost, a.L, time.Duration(frac*float64(solo)))
		if total > solo {
			prof.Add(total - solo)
		} else {
			prof.Add(0)
		}
	}
	a.PreemptOverhead = prof.Mean()
	return a, solos, nil
}

// trainingSamples simulates the performance model's training set: 100
// random inputs (§4.2), described by the features Predict will see, each
// run on p.
func trainingSamples(p *probe, a *Artifacts) []perfmodel.Sample {
	samples := make([]perfmodel.Sample, 0, 100)
	for i := 0; i < 100; i++ {
		scale := float64(i%100+1) / 100
		in := a.Bench.ScaledInput(scale, int64(i))
		samples = append(samples, perfmodel.Sample{
			F:        a.features(in),
			Duration: simSolo(p, a.Profile, in, 0),
		})
	}
	return samples
}

// features builds the model features for an input to a's kernel.
func (a *Artifacts) features(in kernels.Input) perfmodel.Features {
	return perfmodel.Features{
		GridSize:    float64(in.Tasks),
		CTASize:     float64(a.Bench.ThreadsPerCTA),
		InputBytes:  float64(in.Bytes),
		SharedBytes: float64(a.Resources.StaticSharedBytes),
	}
}

// Predict returns the model's duration estimate for an input.
func (s *System) Predict(b *kernels.Benchmark, in kernels.Input) (time.Duration, error) {
	a := s.arts[b.Name]
	if a == nil {
		return 0, fmt.Errorf("core: no artifacts for %s (run Offline first)", b.Name)
	}
	return a.Model.Predict(a.features(in)), nil
}

// profile returns b's execution profile: the offline artifact's once b has
// been processed, else derived from source (a parse and a resource scan).
func (s *System) profile(b *kernels.Benchmark) (*gpu.KernelProfile, error) {
	if a := s.arts[b.Name]; a != nil {
		return a.Profile, nil
	}
	return b.Profile(s.Par.Limits)
}

// MeasureSolo measures the original kernel's solo runtime for an arbitrary
// input (used for performance-model evaluation).
func (s *System) MeasureSolo(b *kernels.Benchmark, in kernels.Input) (time.Duration, error) {
	profile, err := s.profile(b)
	if err != nil {
		return 0, err
	}
	return SoloRun(s.Par, profile, in, 0)
}

// SoloTime returns (cached) the original kernel's solo runtime for a
// calibrated input class: the normalization base for ANTT/STP.
func (s *System) SoloTime(b *kernels.Benchmark, c kernels.InputClass) (time.Duration, error) {
	key := soloKey{b.Name, c}
	if d, ok := s.solo[key]; ok {
		return d, nil
	}
	profile, err := s.profile(b)
	if err != nil {
		return 0, err
	}
	d, err := SoloRun(s.Par, profile, b.Input(c), 0)
	if err != nil {
		return 0, err
	}
	s.solo[key] = d
	return d, nil
}

// SoloPersistentTime measures the FLEP-transformed kernel's solo runtime at
// amortizing factor L (Figure 17's FLEP bars).
func (s *System) SoloPersistentTime(b *kernels.Benchmark, c kernels.InputClass, L int) (time.Duration, error) {
	profile, err := s.profile(b)
	if err != nil {
		return 0, err
	}
	return SoloRun(s.Par, profile, b.Input(c), L)
}
