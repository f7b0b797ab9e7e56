package core

import (
	"errors"
	"fmt"
	"time"

	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/obs"
	"flep/internal/sim"
	"flep/internal/trace"
)

// Stack is the one launch path below HTTP: a fresh engine, device and
// FLEP runtime on a system's device model. RunFLEP, flepd's event loop and
// the replayer each build one per simulated device and turn every launch
// into an invocation through NewInvocation, so a policy comparison across
// drivers compares the same mechanism — and measures it the same way:
// Finished is the one way a finished invocation becomes a result. Neither
// reads the system: a launch carries its resolved Shape. It is not safe
// for concurrent use; whoever steps Eng owns it.
type Stack struct {
	Eng *sim.Engine
	Dev *gpu.Device
	RT  *flepruntime.Runtime
	// DevMetrics is the device's instrument set (nil without a registry).
	DevMetrics *gpu.DeviceMetrics

	ffs *flepruntime.FFS // non-nil iff the policy is FFS
}

// NewStack builds a stack on the system's device model under opt's policy
// and spatial knobs (opt.ShareWindow and opt.Trace are RunFLEP's own). The
// optional log receives device and runtime events, the optional registry
// the device and runtime instruments, and onDrained every realized
// preemption drain with its latency.
func (s *System) NewStack(opt Options, log *trace.Log, reg *obs.Registry,
	onDrained func(v *flepruntime.Invocation, latency time.Duration)) (*Stack, error) {
	policy, err := flepruntime.NewPolicy(opt.Policy, opt.MaxOverhead, opt.Weights)
	if err != nil {
		return nil, err
	}
	// A spatial preemption leaves the victim at least one SM; a wider
	// yield would silently never happen.
	if n := s.Par.Limits.NumSMs; opt.Spatial && opt.SpatialSMs >= n {
		return nil, fmt.Errorf("spatial preemption cannot yield %d SMs of a %d-SM device (want at most %d)", opt.SpatialSMs, n, n-1)
	}
	st := &Stack{Eng: sim.New()}
	st.Dev = gpu.New(st.Eng, s.Par)
	st.ffs, _ = policy.(*flepruntime.FFS)
	cfg := flepruntime.Config{
		Policy:           policy,
		EnableSpatial:    opt.Spatial,
		SpatialSMs:       opt.SpatialSMs,
		OnPreemptDrained: onDrained,
		Log:              log,
	}
	if reg != nil {
		st.DevMetrics = gpu.NewDeviceMetrics(reg)
		st.Dev.Instrument(st.DevMetrics)
		cfg.Metrics = flepruntime.NewMetrics(reg)
	}
	if log != nil {
		st.Dev.Observer = log.DeviceObserver()
	}
	st.RT = flepruntime.New(st.Dev, cfg)
	return st, nil
}

// Shape is a launch's static half: the benchmark, input class and task
// override it names, and everything they determine — the kernel's offline
// artifacts, the input, the predicted Te (§4.2: a function of the launch
// features alone) and the solo baseline its result is normalized by.
// System.Resolve makes one; it is immutable and holds no reference a
// launch writes, so a driver resolves each distinct shape once and
// launches it any number of times, from any goroutine.
type Shape struct {
	arts          *Artifacts
	class         kernels.InputClass
	tasksOverride int
	tasks         int
	taskCost      time.Duration
	workingSet    int64
	te, alone     time.Duration
}

// Resolve resolves a launch of b's class-c input, at tasksOverride tasks
// when that is positive, against the system's offline artifacts. It reads
// the system and never writes it, and fails only for a benchmark the
// offline phase has not processed.
func (s *System) Resolve(b *kernels.Benchmark, c kernels.InputClass, tasksOverride int) (Shape, error) {
	a := s.arts[b.Name]
	if a == nil {
		return Shape{}, fmt.Errorf("core: no artifacts for %s (run Offline first)", b.Name)
	}
	in := b.LaunchInput(c, tasksOverride)
	return Shape{
		arts: a, class: c, tasksOverride: tasksOverride,
		tasks: in.Tasks, taskCost: in.TaskCost, workingSet: in.WorkingSet(),
		te: a.Model.Predict(a.features(in)), alone: s.baseline(b, c, tasksOverride),
	}, nil
}

// baseline is the solo time a launch of b's class-c input is normalized
// by. An overridden task count (a positive one, as kernels.LaunchInput
// reads it) was never calibrated, and it — like a baseline that cannot be
// had — leaves the launch without one.
func (s *System) baseline(b *kernels.Benchmark, c kernels.InputClass, tasksOverride int) time.Duration {
	if tasksOverride > 0 {
		return 0
	}
	d, _ := s.SoloTime(b, c) // an error leaves no baseline
	return d
}

// Artifacts returns the launched kernel's offline artifacts.
func (sh *Shape) Artifacts() *Artifacts { return sh.arts }

// Bench returns the launched benchmark.
func (sh *Shape) Bench() *kernels.Benchmark { return sh.arts.Bench }

// Class returns the launched input class.
func (sh *Shape) Class() kernels.InputClass { return sh.class }

// TasksOverride returns the task override the shape was resolved with.
func (sh *Shape) TasksOverride() int { return sh.tasksOverride }

// Te returns the predicted duration of the launch's input.
func (sh *Shape) Te() time.Duration { return sh.te }

// Alone returns the solo baseline (zero when the launch has none).
func (sh *Shape) Alone() time.Duration { return sh.alone }

// Launch describes one kernel launch the way every driver receives it:
// its resolved shape and what varies launch by launch.
type Launch struct {
	Shape
	Priority int
	// Weight, when positive, is the tenant's requested FFS share.
	Weight float64
	// Budget is the SLO budget in virtual time from now (zero =
	// best-effort).
	Budget time.Duration
	// Dependent marks a model-graph stage.
	Dependent bool
	// L overrides the tuned amortizing factor when positive.
	L int
}

// NewInvocation translates a launch into the invocation the runtime
// schedules: the artifacts' profile and preemption overhead, the tuned or
// overridden L, the shape's input, predicted Te and working set, and the
// deadline stamped on the stack's clock as now + Budget, so a replay that
// re-applies the budget at its own submission instant reproduces
// attainment exactly. The caller sets OnFinish and submits. It fails only
// for a launch whose shape was never resolved.
func (st *Stack) NewInvocation(l Launch) (*flepruntime.Invocation, error) {
	v := new(flepruntime.Invocation)
	if err := st.NewInvocationIn(v, l); err != nil {
		return nil, err
	}
	return v, nil
}

// NewInvocationIn is NewInvocation into storage the caller owns: the zero
// Invocation, or one the runtime has released (its onComplete returned),
// recycled in place. Storage a runtime still holds is refused untouched.
func (st *Stack) NewInvocationIn(v *flepruntime.Invocation, l Launch) error {
	a := l.arts
	if a == nil {
		return errors.New("core: launch of an unresolved shape (use System.Resolve)")
	}
	if err := v.Recycle(); err != nil {
		return err
	}
	if st.ffs != nil && l.Weight > 0 {
		// Scope the requested share weight to this tenant's kernel: keying
		// by priority level would let two tenants at the same priority
		// clobber each other's share, and a departed tenant's weight would
		// linger forever. The per-kernel entry is evicted with the kernel's
		// overhead record when the tenant departs (FFS.OnCompletion).
		st.ffs.SetKernelWeight(a.Bench.Name, l.Weight)
	}
	v.Kernel, v.Priority, v.Profile = a.Bench.Name, l.Priority, a.Profile
	v.Tasks, v.TaskCost, v.L, v.WorkingSet = l.tasks, l.taskCost, a.L, l.workingSet
	v.Te, v.Overhead, v.Dependent, v.Deadline = l.te, a.PreemptOverhead, l.Dependent, 0
	if l.L > 0 {
		v.L = l.L
	}
	if l.Budget > 0 {
		v.Deadline = st.Eng.Now() + l.Budget
	}
	return nil
}

// Finished is the one way out of the runtime: it turns a finished
// invocation of a launch of shape sh into the results record every driver
// tallies — the timings the runtime measured, the solo baseline of the
// launch's own input, and for a deadline-bearing launch the margin it
// finished with, which decides the SLO verdict.
func (st *Stack) Finished(sh *Shape, fv *flepruntime.Invocation) metrics.KernelRun {
	r := metrics.KernelRun{
		Name: sh.arts.Bench.Name, Alone: sh.alone, Turnaround: fv.Turnaround(),
		Waiting: fv.Tw, Preemptions: fv.Preemptions,
	}
	if fv.Deadline > 0 {
		r.Tracked, r.Margin = true, fv.Deadline-fv.FinishedAt()
	}
	return r
}
