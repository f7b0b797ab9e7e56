// Package hostexec closes the FLEP loop for arbitrary MiniCUDA programs:
// it compiles a translation unit with the FLEP compilation engine, then
// *runs the transformed host code* — every flep_intercept call the compiler
// emitted reaches a live FLEP runtime scheduling on the simulated device,
// while the kernels also execute functionally through the interpreter so
// host code observes real results.
//
// Host programs run as coroutines in lockstep with the discrete-event
// engine: a host is either executing CPU code (instantaneous in virtual
// time) or suspended in flep_intercept / flep_sync / flep_sleep, and the
// session resumes one host at a time, in wake order. Only one host, kernel
// thread or engine event runs at a time, so a run, its makespan and the
// data its kernels leave behind are deterministic.
package hostexec

import (
	"errors"
	"fmt"
	"iter"
	"time"

	"flep/internal/core"
	cl "flep/internal/cudalite"
	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/sim"
	"flep/internal/trace"
	"flep/internal/transform"
)

// CompiledKernel is the offline artifact for one kernel of a compiled
// program: transformation info, execution profile, statically estimated
// task cost, and the tuned amortizing factor.
type CompiledKernel struct {
	Name     string
	Info     *transform.KernelInfo
	Profile  *gpu.KernelProfile
	TaskCost time.Duration
	L        int
}

// Program is a FLEP-compiled MiniCUDA translation unit.
type Program struct {
	Original    *cl.Program
	Transformed *cl.Program
	Kernels     map[string]*CompiledKernel
	par         gpu.Params
}

// Compile parses src and runs the full offline pipeline: program
// transformation (spatial form, which subsumes temporal), resource and
// occupancy analysis, static task-cost estimation, and amortizing-factor
// tuning against the analytic overhead model.
func Compile(src string, par gpu.Params) (*Program, error) {
	orig, err := cl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("hostexec: %w", err)
	}
	transformed, infos, err := transform.TransformProgram(orig, transform.ModeSpatial)
	if err != nil {
		return nil, err
	}
	p := &Program{Original: orig, Transformed: transformed, Kernels: map[string]*CompiledKernel{}, par: par}
	cp := transform.DefaultCostParams()
	for _, fn := range orig.Funcs {
		if fn.Qual != cl.QualGlobal {
			continue
		}
		res, err := transform.EstimateResources(orig, fn)
		if err != nil {
			return nil, err
		}
		// Threads per CTA are a launch-time property; analyze at the
		// paper's 256-thread operating point.
		const threads = 256
		occ, err := transform.ComputeOccupancy(par.Limits, res, threads, 0)
		if err != nil {
			return nil, err
		}
		cost := transform.EstimateTaskCost(orig, fn, threads, cp)
		if cost <= 0 {
			cost = time.Microsecond
		}
		// Analytic single-run overhead: poll amortized over L plus the
		// per-task atomic, relative to the task cost.
		measure := func(L int) float64 {
			per := par.TaskAtomicLatency.Seconds() + par.PinnedReadLatency.Seconds()/float64(L)
			return per / cost.Seconds()
		}
		l, _, _ := transform.Autotune(measure, transform.DefaultOverheadThreshold, transform.DefaultMaxAmortize)
		p.Kernels[fn.Name] = &CompiledKernel{
			Name: fn.Name,
			Info: infos[fn.Name],
			Profile: &gpu.KernelProfile{
				Name:            fn.Name,
				ThreadsPerCTA:   threads,
				CTAsPerSM:       occ.CTAsPerSM,
				MemoryIntensity: 0.5,
				ContentionFloor: 0.8,
			},
			TaskCost: cost,
			L:        l,
		}
	}
	if len(p.Kernels) == 0 {
		return nil, fmt.Errorf("hostexec: program has no __global__ kernels")
	}
	return p, nil
}

// HostProc is one host process to run: a host function of the program with
// its arguments, a priority inherited by its kernel launches, and a start
// time.
type HostProc struct {
	Name     string // label for the report (defaults to Func)
	Func     string
	Args     []cl.Value
	Priority int
	At       time.Duration
	// Async makes kernel launches non-blocking: the host continues after
	// submitting and synchronizes via flep_sync() (or implicitly when the
	// host function returns). Each launch behaves as its own stream, so
	// the scheduler may run a process's outstanding kernels in any order.
	Async bool
}

// maxFunctionalTasks caps functional (interpreted) execution: grids
// beyond it run timing-only.
const maxFunctionalTasks = 4096

// Options configure a session.
type Options struct {
	// Policy names the scheduling policy (see flepruntime.NewPolicy;
	// empty = hpf). FFS runs at its default overhead budget.
	Policy string
	// Spatial enables spatial preemption.
	Spatial bool
	// Trace collects the event log.
	Trace bool
}

// InvocationRecord reports one kernel launch observed by the runtime.
type InvocationRecord struct {
	Proc        string
	Kernel      string
	Priority    int
	Grid, Block cl.Dim3
	SubmittedAt time.Duration
	FinishedAt  time.Duration
	Functional  bool
}

// Turnaround returns waiting plus execution time.
func (r InvocationRecord) Turnaround() time.Duration { return r.FinishedAt - r.SubmittedAt }

// Report is the outcome of a session.
type Report struct {
	Makespan    time.Duration
	Invocations []InvocationRecord
	Log         *trace.Log
}

// Run executes the host processes against a fresh core.Stack. The stack
// has no offline artifacts, so the runtime estimates preemption overhead
// from its drain model; the invocations are hostexec's own, since a
// compiled kernel has no kernels.Benchmark to predict from.
func Run(p *Program, opt Options, procs ...HostProc) (*Report, error) {
	s := &session{p: p, opt: opt, report: &Report{}}
	if opt.Trace {
		s.report.Log = &trace.Log{}
	}
	st, err := core.NewSystem(p.par).NewStack(core.Options{Policy: opt.Policy, Spatial: opt.Spatial}, s.report.Log, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("hostexec: %w", err)
	}
	s.eng, s.dev, s.rt = st.Eng, st.Dev, st.RT
	for i := range procs {
		proc := procs[i]
		if proc.Name == "" {
			proc.Name = proc.Func
		}
		if p.Original.Func(proc.Func) == nil {
			return nil, fmt.Errorf("hostexec: no host function %q", proc.Func)
		}
		if proc.At < 0 {
			return nil, fmt.Errorf("hostexec: host process %q starts at negative time %v", proc.Name, proc.At)
		}
		ps := &procState{HostProc: proc}
		s.procs = append(s.procs, ps)
		s.eng.Schedule(proc.At, func() { s.start(ps) })
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	s.report.Makespan = s.eng.Now()
	return s.report, nil
}

type procState struct {
	HostProc
	// resume runs the host until it suspends (true) or returns (false,
	// with the host's error); stop unwinds a suspended host.
	resume      func() (error, bool)
	stop        func()
	outstanding int  // async launches not yet completed
	syncing     bool // suspended in flep_sync
}

type session struct {
	p   *Program
	opt Options
	eng *sim.Engine
	dev *gpu.Device
	rt  *flepruntime.Runtime

	procs   []*procState
	wakeQ   []*procState
	live    int
	failure error
	report  *Report
}

// errStopped unwinds a host the session abandoned while it was suspended.
var errStopped = errors.New("hostexec: session stopped")

// start makes the coroutine for a process and queues its first resume
// (fires at proc.At).
func (s *session) start(ps *procState) {
	s.live++
	s.wakeQ = append(s.wakeQ, ps)
	ps.resume, ps.stop = iter.Pull(func(yield func(error) bool) {
		if err := s.interpretHost(ps, yield); err != nil {
			yield(err)
		}
	})
}

// interpretHost runs the transformed host function with the runtime hooks.
// A hook acts on the session and then suspends the host until something
// wakes it: a synchronous launch's completion, an async launch's
// submission, flep_sync's last outstanding completion, the sleep's end.
func (s *session) interpretHost(ps *procState, yield func(error) bool) error {
	m := cl.NewMachine(s.p.Transformed)
	m.HostCall = func(name string, args []cl.Value) (cl.Value, bool, error) {
		switch name {
		case transform.InterceptFunc:
			if len(args) < 4 {
				return cl.Value{}, true, fmt.Errorf("flep_intercept wants (name, grid, block, shmem, args...)")
			}
			if err := s.launch(ps, args[0].Str(), cl.UnpackDim3(args[1]), cl.UnpackDim3(args[2]), args[4:]); err != nil {
				return cl.Value{}, true, err
			}
		case "flep_sync":
			if !ps.Async {
				return cl.Value{}, true, nil // synchronous hosts are always synced
			}
			if ps.outstanding == 0 {
				s.wakeQ = append(s.wakeQ, ps)
			} else {
				ps.syncing = true
			}
		case "flep_sleep":
			if len(args) != 1 {
				return cl.Value{}, true, fmt.Errorf("flep_sleep wants (microseconds)")
			}
			us := args[0].Int()
			if us < 0 {
				return cl.Value{}, true, fmt.Errorf("negative duration (%d microseconds)", us)
			}
			s.eng.Schedule(time.Duration(us)*time.Microsecond, func() { s.wakeQ = append(s.wakeQ, ps) })
		default:
			return cl.Value{}, false, nil
		}
		if !yield(nil) {
			return cl.Value{}, true, errStopped
		}
		return cl.Value{}, true, nil
	}
	return m.CallHost(ps.Func, ps.Args)
}

// loop is the co-simulation driver: strictly alternates between host CPU
// execution (resuming woken hosts until none is runnable) and device time
// (engine steps). However it returns, no host is left suspended.
func (s *session) loop() error {
	defer func() {
		for _, ps := range s.procs {
			if ps.stop != nil {
				ps.stop()
			}
		}
	}()
	for {
		for len(s.wakeQ) > 0 {
			ps := s.wakeQ[0]
			s.wakeQ = s.wakeQ[1:]
			err, suspended := ps.resume()
			if err != nil {
				return err
			}
			if !suspended {
				// Returned. Outstanding async launches are an implicit
				// final sync: their completions are already scheduled.
				s.live--
			}
		}
		if s.failure != nil {
			return s.failure
		}
		if !s.eng.Step() {
			break
		}
	}
	if s.live > 0 {
		return fmt.Errorf("hostexec: %d host process(es) blocked forever (kernel never scheduled?)", s.live)
	}
	return s.failure
}

// launch submits one intercepted kernel invocation to the FLEP runtime.
func (s *session) launch(ps *procState, name string, grid, block cl.Dim3, args []cl.Value) error {
	ck := s.p.Kernels[name]
	if ck == nil {
		return fmt.Errorf("hostexec: launch of unknown kernel %q", name)
	}
	tasks := grid.Count()
	if tasks <= 0 {
		return fmt.Errorf("hostexec: %s launched with empty grid", name)
	}
	profile := *ck.Profile
	profile.ThreadsPerCTA = block.Count()
	rec := InvocationRecord{
		Proc: ps.Name, Kernel: name, Priority: ps.Priority,
		Grid: grid, Block: block,
		Functional: tasks <= maxFunctionalTasks,
	}
	active := s.dev.NumSMs() * profile.CTAsPerSM
	te := time.Duration(float64(tasks) / float64(active) * float64(ck.TaskCost))
	inv := &flepruntime.Invocation{
		Kernel:   name,
		Priority: ps.Priority,
		Profile:  &profile,
		Tasks:    tasks,
		TaskCost: ck.TaskCost,
		L:        ck.L,
		Te:       te,
		OnFinish: func(v *flepruntime.Invocation) {
			rec.SubmittedAt = v.SubmittedAt()
			rec.FinishedAt = v.FinishedAt()
			if rec.Functional {
				// Interpret the original kernel, so host code observes the
				// launch's real data effects.
				m := cl.NewMachine(s.p.Original)
				if err := m.Launch(name, cl.LaunchConfig{Grid: grid, Block: block, Args: args}); err != nil && s.failure == nil {
					s.failure = err
				}
			}
			s.report.Invocations = append(s.report.Invocations, rec)
			if ps.Async {
				ps.outstanding--
				if ps.syncing && ps.outstanding == 0 {
					ps.syncing = false
					s.wakeQ = append(s.wakeQ, ps)
				}
			} else {
				s.wakeQ = append(s.wakeQ, ps)
			}
		},
	}
	if err := s.rt.Submit(inv); err != nil {
		return err
	}
	if ps.Async {
		ps.outstanding++
		s.wakeQ = append(s.wakeQ, ps) // continue host code immediately
	}
	return nil
}
