// Package core assembles FLEP: the offline phase (compile each kernel to a
// preemptable form, tune its amortizing factor, train its duration model,
// profile its preemption overhead) and the online phase (run co-run
// scenarios under the FLEP runtime or under the baselines).
package core

import (
	"fmt"
	"time"

	"flep/internal/cudalite"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/perfmodel"
	"flep/internal/sim"
	"flep/internal/transform"
)

// Artifacts is the offline-phase output for one benchmark kernel.
type Artifacts struct {
	Bench   *kernels.Benchmark
	Profile *gpu.KernelProfile
	// Program and Transformed are the original and FLEP-compiled
	// MiniCUDA translation units; Info describes the generated kernel.
	Program     *cudalite.Program
	Transformed *cudalite.Program
	Info        *transform.KernelInfo
	Resources   transform.Resources
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
// a finished launch by (SoloTime, Stack.Finished, Runs).
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
// own cache maps, so independent schedulers (e.g. fleet shards, each on
// its own goroutine) can call Predict/SoloTime concurrently without
// racing on the plain-map caches. Artifacts are immutable after Offline,
// so sharing the values is safe; run the offline phase once and Clone per
// shard instead of paying it N times.
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

// Offline runs the complete offline phase for the benchmarks: program
// transformation, amortizing-factor tuning (threshold 4%), performance
// model training (100 random inputs), and preemption-overhead profiling
// (50 runs).
func (s *System) Offline(benchs []*kernels.Benchmark) error {
	for _, b := range benchs {
		a, err := s.buildArtifacts(b)
		if err != nil {
			return fmt.Errorf("core: offline %s: %w", b.Name, err)
		}
		s.arts[b.Name] = a
	}
	return nil
}

// OfflineAll runs Offline for the full benchmark suite.
func (s *System) OfflineAll() error { return s.Offline(kernels.All()) }

func (s *System) buildArtifacts(b *kernels.Benchmark) (*Artifacts, error) {
	prog, err := b.Parse()
	if err != nil {
		return nil, err
	}
	transformed, info, err := transform.TransformKernel(prog, b.KernelName, transform.ModeSpatial)
	if err != nil {
		return nil, err
	}
	res, err := transform.EstimateResources(prog, prog.Kernel(b.KernelName))
	if err != nil {
		return nil, err
	}
	profile, err := s.profile(b)
	if err != nil {
		return nil, err
	}
	a := &Artifacts{
		Bench: b, Profile: profile,
		Program: prog, Transformed: transformed, Info: info,
		Resources: res,
	}

	// The solo baselines (the ANTT/STP denominators) are offline artifacts
	// too: for a processed benchmark SoloTime never simulates, on this
	// system or on a Clone of it.
	for _, c := range kernels.Classes() {
		s.solo[soloKey{b.Name, c}] = s.simSolo(profile, b.Input(c), 0)
	}

	// Offline tuning: smallest L with single-run overhead under 4%,
	// measured on the large input (§4.1).
	large := b.Input(kernels.Large)
	orig := s.solo[soloKey{b.Name, kernels.Large}]
	a.L, a.TunedOverhead, a.TuneOK = transform.Autotune(func(L int) float64 {
		t := s.simSolo(profile, large, L)
		return (t - orig).Seconds() / orig.Seconds()
	}, transform.DefaultOverheadThreshold, transform.DefaultMaxAmortize)

	// Performance model: 100 random inputs, linear regression with L2
	// penalty (§4.2).
	var samples []perfmodel.Sample
	for i := 0; i < 100; i++ {
		scale := float64(i%100+1) / 100
		in := b.ScaledInput(scale, int64(i))
		dur := s.simSolo(profile, in, 0)
		samples = append(samples, perfmodel.Sample{
			F:        s.features(b, in),
			Duration: dur,
		})
	}
	model, err := perfmodel.Train(samples, perfmodel.DefaultLambda)
	if err != nil {
		return nil, err
	}
	a.Model = model

	// Preemption-overhead profiling: 50 preempt+resume runs at varying
	// points; the mean is the online estimate (§4.2).
	var prof perfmodel.OverheadProfile
	for i := 0; i < perfmodel.DefaultOverheadRuns; i++ {
		frac := float64(i+1) / float64(perfmodel.DefaultOverheadRuns+1)
		in := b.ScaledInput(0.05+0.1*frac, int64(1000+i))
		solo := s.simSolo(profile, in, a.L)
		total := s.simPreemptResume(profile, in.Tasks, in.TaskCost, a.L, time.Duration(frac*float64(solo)))
		if total > solo {
			prof.Add(total - solo)
		} else {
			prof.Add(0)
		}
	}
	a.PreemptOverhead = prof.Mean()
	return a, nil
}

// features builds the model features for an input.
func (s *System) features(b *kernels.Benchmark, in kernels.Input) perfmodel.Features {
	a := s.arts[b.Name]
	shared := 0
	if a != nil {
		shared = a.Resources.StaticSharedBytes
	}
	return perfmodel.Features{
		GridSize:    float64(in.Tasks),
		CTASize:     float64(b.ThreadsPerCTA),
		InputBytes:  float64(in.Bytes),
		SharedBytes: float64(shared),
	}
}

// Predict returns the model's duration estimate for an input.
func (s *System) Predict(b *kernels.Benchmark, in kernels.Input) (time.Duration, error) {
	a := s.arts[b.Name]
	if a == nil {
		return 0, fmt.Errorf("core: no artifacts for %s (run Offline first)", b.Name)
	}
	return a.Model.Predict(s.features(b, in)), nil
}

// SoloRun measures one kernel configuration's solo runtime on a fresh
// simulated device: the original kernel when L is zero, the
// FLEP-transformed persistent kernel at amortizing factor L otherwise.
func SoloRun(par gpu.Params, profile *gpu.KernelProfile, in kernels.Input, L int) (time.Duration, error) {
	eng := sim.New()
	dev := gpu.New(eng, par)
	var done time.Duration
	_, err := dev.Start(gpu.ExecConfig{
		Profile: profile, TotalTasks: in.Tasks, TaskCost: in.TaskCost,
		Persistent: L > 0, L: L,
		SMLo: 0, SMHi: dev.NumSMs(),
		OnComplete: func() { done = eng.Now() },
	})
	if err != nil {
		return 0, err
	}
	eng.Run()
	return done, nil
}

// simSolo is SoloRun on the system's device for inputs the offline phase
// generates itself, where a refused start is a bug.
func (s *System) simSolo(profile *gpu.KernelProfile, in kernels.Input, L int) time.Duration {
	d, err := SoloRun(s.Par, profile, in, L)
	if err != nil {
		panic(fmt.Sprintf("core: simSolo: %v", err))
	}
	return d
}

// simPreemptResume measures the elapsed time of a persistent run that is
// temporally preempted at `at` and resumed as soon as the drain completes.
func (s *System) simPreemptResume(profile *gpu.KernelProfile, tasks int, cost time.Duration, L int, at time.Duration) time.Duration {
	eng := sim.New()
	dev := gpu.New(eng, s.Par)
	var done time.Duration
	start := func(doneTasks int, onDrained func(int)) *gpu.Exec {
		e, err := dev.Start(gpu.ExecConfig{
			Profile: profile, TotalTasks: tasks, DoneTasks: doneTasks,
			TaskCost: cost, Persistent: true, L: L,
			ColdStart: doneTasks > 0,
			SMLo:      0, SMHi: dev.NumSMs(),
			OnComplete: func() { done = eng.Now() },
			OnDrained:  onDrained,
		})
		if err != nil {
			panic(fmt.Sprintf("core: simPreemptResume: %v", err))
		}
		return e
	}
	var first *gpu.Exec
	first = start(0, func(rem int) {
		if rem == 0 {
			return
		}
		start(tasks-rem, nil)
	})
	if at > 0 {
		eng.Schedule(at, func() {
			if first.State() == gpu.StateRunning || first.State() == gpu.StateLaunching {
				_ = first.Preempt(dev.NumSMs())
			}
		})
	}
	eng.Run()
	return done
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

// baseline returns the solo time a launch of b is normalized by: that of
// its own input class, or zero — no baseline — when the task count was
// overridden, since no solo run was calibrated for that input.
func (s *System) baseline(b *kernels.Benchmark, c kernels.InputClass, tasksOverride int) (time.Duration, error) {
	if tasksOverride != 0 {
		return 0, nil
	}
	return s.SoloTime(b, c)
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
