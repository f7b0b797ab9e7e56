package core

import (
	"fmt"
	"time"

	"flep/internal/baselines"
	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/metrics"
	"flep/internal/sim"
	"flep/internal/trace"
	"flep/internal/workload"
)

// Options configure an online run. The first five fields are a run's
// scheduler everywhere below the flag parsers: flepd's shards, a trace
// header (under these keys) and every replay; NewStack validates them.
type Options struct {
	// Policy names the scheduling policy (see flepruntime.NewPolicy;
	// empty = hpf).
	Policy string `json:"policy,omitempty"`
	// Spatial enables spatial preemption (HPF only).
	Spatial bool `json:"spatial,omitempty"`
	// SpatialSMs overrides how many SMs a spatial preemption yields
	// (0 = just enough for the guest's CTAs); Figure 16's knob.
	SpatialSMs int `json:"spatial_sms,omitempty"`
	// MaxOverhead is FFS's overhead budget (default 0.10).
	MaxOverhead float64 `json:"max_overhead,omitempty"`
	// Weights maps priority level to FFS share weight.
	Weights map[int]float64 `json:"weights,omitempty"`
	// ShareWindow enables GPU-share sampling at this period (0 = off).
	ShareWindow time.Duration `json:"-"`
	// Trace collects a full event log when true.
	Trace bool `json:"-"`
}

// RunResult aggregates one scenario execution.
type RunResult struct {
	Scenario string
	// Results holds the record of every completed invocation, in completion
	// order, and Items the index of the scenario item each one ran.
	Results []metrics.KernelRun
	Items   []int
	// Completions counts finished invocations per kernel (loop clients).
	Completions map[string]int
	// Makespan is the time the last invocation finished (or the horizon).
	Makespan time.Duration
	// Shares is the GPU-share series (when Options.ShareWindow > 0).
	Shares []metrics.ShareSample
	// Log is the event log (when Options.Trace).
	Log *trace.Log
}

// ResultFor returns the first completed invocation of the kernel, or nil.
func (r *RunResult) ResultFor(kernel string) *metrics.KernelRun {
	for i := range r.Results {
		if r.Results[i].Name == kernel {
			return &r.Results[i]
		}
	}
	return nil
}

// runScenario is the one scenario loop under every executor. bind is called
// once per item, with its index, and returns its submit function, which
// launches the item and must see done called exactly once with that
// launch's record. runScenario
// schedules each item's arrival on eng, resubmits closed-loop items until
// the horizon — they need a positive one — and runs the engine to it (or to
// drain when there is none). Nothing here is built per launch: a relaunch
// costs what submit itself allocates.
func runScenario(eng *sim.Engine, sc workload.Scenario, bind func(i int, item workload.Item, done func(metrics.KernelRun)) (submit func())) (*RunResult, error) {
	for _, item := range sc.Items {
		if item.Loop && sc.Horizon <= 0 {
			return nil, fmt.Errorf("core: scenario %s loops %s and has horizon %v, want a positive one", sc.Name, item.Bench.Name, sc.Horizon)
		}
	}
	res := &RunResult{Scenario: sc.Name, Completions: map[string]int{}}
	completions := make([]int, len(sc.Items))
	for i, item := range sc.Items {
		var submit func()
		submit = bind(i, item, func(r metrics.KernelRun) {
			completions[i]++
			res.Results = append(res.Results, r)
			res.Items = append(res.Items, i)
			if item.Loop && eng.Now() < sc.Horizon {
				submit()
			}
		})
		eng.Schedule(item.At, submit)
	}
	if sc.Horizon > 0 {
		eng.RunUntil(sc.Horizon)
	} else {
		eng.Run()
	}
	for i, item := range sc.Items {
		if completions[i] > 0 {
			res.Completions[item.Bench.Name] += completions[i]
		}
	}
	res.Makespan = eng.Now()
	return res, nil
}

// RunFLEP executes a scenario under the FLEP runtime engine. Each item's
// launch is resolved once, before anything runs.
func (s *System) RunFLEP(sc workload.Scenario, opt Options) (*RunResult, error) {
	launches := make([]Launch, len(sc.Items))
	for i, item := range sc.Items {
		sh, err := s.Resolve(item.Bench, item.Class, item.TasksOverride)
		if err != nil {
			return nil, err
		}
		launches[i] = Launch{Shape: sh, Priority: item.Priority}
	}
	var log *trace.Log
	if opt.Trace {
		log = &trace.Log{}
	}
	st, err := s.NewStack(opt, log, nil, nil)
	if err != nil {
		return nil, err
	}
	var acc *metrics.ShareAccumulator
	if opt.ShareWindow > 0 {
		acc = metrics.NewShareAccumulator(opt.ShareWindow)
		prev := st.Dev.Observer
		st.Dev.Observer = func(ev gpu.Event) {
			if prev != nil {
				prev(ev)
			}
			switch ev.Kind {
			case gpu.EvResident:
				acc.Observe(ev.Time, ev.Kernel)
			case gpu.EvComplete, gpu.EvDrained:
				acc.Observe(ev.Time, "")
			}
		}
	}
	res, err := runScenario(st.Eng, sc, func(i int, item workload.Item, done func(metrics.KernelRun)) func() {
		l := &launches[i]
		onFinish := func(fv *flepruntime.Invocation) { done(st.Finished(&l.Shape, fv)) }
		// A closed-loop relaunch is submitted from inside the finishing
		// invocation's OnFinish, and the runtime holds that storage until its
		// onComplete returns, so an item's launches alternate between two.
		var v, spare *flepruntime.Invocation
		return func() {
			if spare == nil {
				spare = new(flepruntime.Invocation)
			}
			v, spare = spare, v
			err := st.NewInvocationIn(v, *l)
			if err == nil {
				v.OnFinish = onFinish
				err = st.RT.Submit(v)
			}
			if err != nil {
				panic(fmt.Sprintf("core: submit %s: %v", item.Bench.Name, err))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if acc != nil {
		res.Shares = acc.Samples(st.Eng.Now())
	}
	res.Log = log
	return res, nil
}

// RunMPS executes a scenario under the MPS FIFO baseline.
func (s *System) RunMPS(sc workload.Scenario) (*RunResult, error) {
	return s.runBaseline(sc, baselines.NewMPS)
}

// RunReorder executes a scenario under the kernel-reordering baseline.
func (s *System) RunReorder(sc workload.Scenario) (*RunResult, error) {
	return s.runBaseline(sc, baselines.NewReorder)
}

// RunSliced executes a scenario under the kernel-slicing baseline with the
// given sub-kernel size in CTAs (0 picks the paper's 120).
func (s *System) RunSliced(sc workload.Scenario, sliceTasks int) (*RunResult, error) {
	if sliceTasks <= 0 {
		sliceTasks = 120
	}
	return s.runBaseline(sc, func(dev *gpu.Device) *baselines.Executor { return baselines.NewSlicer(dev, sliceTasks) })
}

// runBaseline executes a scenario under the non-FLEP executor newExec
// builds on a fresh device.
func (s *System) runBaseline(sc workload.Scenario, newExec func(*gpu.Device) *baselines.Executor) (*RunResult, error) {
	eng := sim.New()
	exec := newExec(gpu.New(eng, s.Par))
	profiles := map[string]*gpu.KernelProfile{}
	for _, item := range sc.Items {
		profile, err := s.profile(item.Bench)
		if err != nil {
			return nil, err
		}
		profiles[item.Bench.Name] = profile
	}
	return runScenario(eng, sc, func(_ int, item workload.Item, done func(metrics.KernelRun)) func() {
		in := item.Bench.LaunchInput(item.Class, item.TasksOverride)
		profile := profiles[item.Bench.Name]
		// Zero before Offline: the baselines run without artifacts.
		predicted, _ := s.Predict(item.Bench, in)
		alone := s.baseline(item.Bench, item.Class, item.TasksOverride)
		onFinish := func(fj *baselines.Job) {
			done(metrics.KernelRun{Name: item.Bench.Name, Alone: alone, Turnaround: fj.Turnaround(), Waiting: fj.Waiting()})
		}
		return func() {
			exec.Submit(&baselines.Job{
				Kernel: item.Bench.Name, Priority: item.Priority,
				Profile: profile, Tasks: in.Tasks, TaskCost: in.TaskCost,
				Predicted: predicted,
				OnFinish:  onFinish,
			})
		}
	})
}
