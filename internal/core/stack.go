package core

import (
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
// FLEP runtime wired to a system's offline artifacts. RunFLEP, flepd's
// event loop and the replayer each build one per simulated device and
// turn every launch into an invocation through NewInvocation, so a policy
// comparison across drivers compares the same mechanism — and measures it
// the same way: Finished is the one way a finished invocation becomes a
// result. It is not safe for concurrent use; whoever steps Eng owns it.
type Stack struct {
	Eng *sim.Engine
	Dev *gpu.Device
	RT  *flepruntime.Runtime
	// DevMetrics is the device's instrument set (nil without a registry).
	DevMetrics *gpu.DeviceMetrics

	sys *System
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
	st := &Stack{Eng: sim.New(), sys: s}
	st.Dev = gpu.New(st.Eng, s.Par)
	st.ffs, _ = policy.(*flepruntime.FFS)
	cfg := flepruntime.Config{
		Policy:        policy,
		EnableSpatial: opt.Spatial,
		SpatialSMs:    opt.SpatialSMs,
		OverheadEstimate: func(kernel string) time.Duration {
			if a := s.arts[kernel]; a != nil {
				return a.PreemptOverhead
			}
			return 0
		},
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

// Launch describes one kernel launch the way every driver receives it.
type Launch struct {
	Bench *kernels.Benchmark
	Class kernels.InputClass
	// TasksOverride replaces the class's task count when positive.
	TasksOverride int
	Priority      int
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
// schedules: the artifacts' profile, the tuned or overridden L, the
// predicted Te of the resolved input, its working set, and the deadline
// stamped on the stack's clock as now + Budget, so a replay that re-applies
// the budget at its own submission instant reproduces attainment exactly.
// The caller sets OnFinish and submits. It fails only for a benchmark the
// offline phase has not processed.
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
	in := l.Bench.LaunchInput(l.Class, l.TasksOverride)
	te, err := st.sys.Predict(l.Bench, in)
	if err != nil {
		return err
	}
	if err := v.Recycle(); err != nil {
		return err
	}
	a := st.sys.arts[l.Bench.Name]
	if st.ffs != nil && l.Weight > 0 {
		// Scope the requested share weight to this tenant's kernel: keying
		// by priority level would let two tenants at the same priority
		// clobber each other's share, and a departed tenant's weight would
		// linger forever. The per-kernel entry is evicted with the kernel's
		// overhead record when the tenant departs (FFS.OnCompletion).
		st.ffs.SetKernelWeight(l.Bench.Name, l.Weight)
	}
	v.Kernel, v.Priority, v.Profile = l.Bench.Name, l.Priority, a.Profile
	v.Tasks, v.TaskCost, v.L, v.WorkingSet = in.Tasks, in.TaskCost, a.L, in.WorkingSet()
	v.Te, v.Dependent, v.Deadline = te, l.Dependent, 0
	if l.L > 0 {
		v.L = l.L
	}
	if l.Budget > 0 {
		v.Deadline = st.Eng.Now() + l.Budget
	}
	return nil
}

// Finished is the one way out of the runtime: it turns a finished
// invocation of launch l into the results record every driver tallies —
// the timings the runtime measured, the solo baseline of l's own input,
// and for a deadline-bearing launch the margin it finished with, which
// decides the SLO verdict.
func (st *Stack) Finished(l Launch, fv *flepruntime.Invocation) metrics.KernelRun {
	r := st.sys.record(l, fv.Turnaround(), fv.Tw, fv.Preemptions)
	if fv.Deadline > 0 {
		r.Tracked, r.Margin = true, fv.Deadline-fv.FinishedAt()
	}
	return r
}

// record is the one place core writes a finished launch's record, for
// flepd, the replayer and every scenario driver alike: launch l's timings
// beside the solo time of its own (kernel, class), so a scenario that runs
// one kernel on two inputs is normalized by two baselines. An overridden
// task count was never calibrated, and it — like a baseline that cannot be
// had — leaves the record without one.
func (s *System) record(l Launch, turnaround, waiting time.Duration, preemptions int) metrics.KernelRun {
	var alone time.Duration
	if l.TasksOverride == 0 {
		alone, _ = s.SoloTime(l.Bench, l.Class) // an error leaves no baseline
	}
	return metrics.KernelRun{
		Name: l.Bench.Name, Alone: alone, Turnaround: turnaround,
		Waiting: waiting, Preemptions: preemptions,
	}
}
