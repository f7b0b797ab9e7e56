// Package hostexec closes the FLEP loop for arbitrary MiniCUDA programs:
// it compiles a translation unit with the FLEP compilation engine, then
// *runs the transformed host code* — every flep_intercept call the compiler
// emitted reaches a live FLEP runtime scheduling on the simulated device,
// while the kernels also execute functionally through the interpreter so
// host code observes real results.
//
// Host programs run as goroutines in lockstep with the discrete-event
// engine: a host is either executing CPU code (instantaneous in virtual
// time) or blocked in flep_intercept / flep_sleep; the session wakes hosts
// one at a time, so runs are deterministic.
package hostexec

import (
	"fmt"
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

// For returns the first invocation record of the kernel, or nil.
func (r *Report) For(kernel string) *InvocationRecord {
	for i := range r.Invocations {
		if r.Invocations[i].Kernel == kernel {
			return &r.Invocations[i]
		}
	}
	return nil
}

// Run executes the host processes against a fresh core.Stack. The stack
// has no offline artifacts, so the runtime estimates preemption overhead
// from its drain model; the invocations are hostexec's own, since a
// compiled kernel has no kernels.Benchmark to predict from.
func Run(p *Program, opt Options, procs ...HostProc) (*Report, error) {
	s := &session{p: p, opt: opt, cmds: make(chan command), report: &Report{}}
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
		ps := &procState{HostProc: proc, wake: make(chan struct{}, 1)}
		s.procs = append(s.procs, ps)
		s.eng.Schedule(proc.At, func() { s.start(ps) })
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	s.report.Makespan = s.eng.Now()
	return s.report, nil
}

type cmdKind int

const (
	cmdLaunch cmdKind = iota
	cmdSleep
	cmdSync
	cmdDone
)

type command struct {
	kind  cmdKind
	proc  *procState
	err   error
	name  string
	grid  cl.Dim3
	block cl.Dim3
	args  []cl.Value
	sleep time.Duration
}

type procState struct {
	HostProc
	wake        chan struct{}
	started     bool
	done        bool
	outstanding int  // async launches not yet completed
	syncing     bool // blocked in flep_sync (or implicit final sync)
}

type session struct {
	p   *Program
	opt Options
	eng *sim.Engine
	dev *gpu.Device
	rt  *flepruntime.Runtime

	procs    []*procState
	cmds     chan command
	awaiting int // hosts currently executing CPU code
	wakeQ    []*procState
	live     int
	failure  error
	report   *Report
}

// start launches the host goroutine for a process (fires at proc.At).
func (s *session) start(ps *procState) {
	ps.started = true
	s.live++
	s.wakeQ = append(s.wakeQ, ps)
	go func() {
		<-ps.wake
		err := s.interpretHost(ps)
		s.cmds <- command{kind: cmdDone, proc: ps, err: err}
	}()
}

// interpretHost runs the transformed host function with the runtime hooks.
func (s *session) interpretHost(ps *procState) error {
	m := cl.NewMachine(s.p.Transformed)
	m.HostCall = func(name string, args []cl.Value) (cl.Value, bool, error) {
		switch name {
		case transform.InterceptFunc:
			if len(args) < 4 {
				return cl.Value{}, true, fmt.Errorf("flep_intercept wants (name, grid, block, shmem, args...)")
			}
			s.cmds <- command{
				kind: cmdLaunch, proc: ps,
				name:  args[0].Str(),
				grid:  cl.UnpackDim3(args[1]),
				block: cl.UnpackDim3(args[2]),
				args:  args[4:],
			}
			// Synchronous hosts block until completion; async hosts are
			// woken right after submission.
			<-ps.wake
			return cl.Value{}, true, nil
		case "flep_sync":
			if !ps.Async {
				return cl.Value{}, true, nil // synchronous hosts are always synced
			}
			s.cmds <- command{kind: cmdSync, proc: ps}
			<-ps.wake
			return cl.Value{}, true, nil
		case "flep_sleep":
			if len(args) != 1 {
				return cl.Value{}, true, fmt.Errorf("flep_sleep wants (microseconds)")
			}
			if us := args[0].Int(); us < 0 {
				return cl.Value{}, true, fmt.Errorf("negative duration (%d microseconds)", us)
			}
			s.cmds <- command{
				kind: cmdSleep, proc: ps,
				sleep: time.Duration(args[0].Int()) * time.Microsecond,
			}
			<-ps.wake
			return cl.Value{}, true, nil
		}
		return cl.Value{}, false, nil
	}
	return m.CallHost(ps.Func, ps.Args)
}

// loop is the co-simulation driver: strictly alternates between host CPU
// execution (draining commands) and device time (engine steps).
func (s *session) loop() error {
	for {
		for s.awaiting > 0 || len(s.wakeQ) > 0 {
			if s.awaiting == 0 {
				next := s.wakeQ[0]
				s.wakeQ = s.wakeQ[1:]
				s.awaiting = 1
				next.wake <- struct{}{}
				continue
			}
			c := <-s.cmds
			s.awaiting--
			if err := s.handle(c); err != nil {
				return err
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

func (s *session) handle(c command) error {
	switch c.kind {
	case cmdDone:
		c.proc.done = true
		if c.proc.outstanding > 0 {
			// Implicit final sync: the report's makespan must cover the
			// process's outstanding async work; completions are already
			// scheduled, nothing to do here.
			c.proc.syncing = false
		}
		s.live--
		return c.err
	case cmdSync:
		if c.proc.outstanding == 0 {
			s.wakeQ = append(s.wakeQ, c.proc)
		} else {
			c.proc.syncing = true
		}
		return nil
	case cmdSleep:
		ps := c.proc
		s.eng.Schedule(c.sleep, func() { s.wakeQ = append(s.wakeQ, ps) })
		return nil
	case cmdLaunch:
		return s.launch(c)
	}
	return fmt.Errorf("hostexec: unknown command")
}

// launch submits one intercepted kernel invocation to the FLEP runtime.
func (s *session) launch(c command) error {
	ck := s.p.Kernels[c.name]
	if ck == nil {
		return fmt.Errorf("hostexec: launch of unknown kernel %q", c.name)
	}
	tasks := c.grid.Count()
	if tasks <= 0 {
		return fmt.Errorf("hostexec: %s launched with empty grid", c.name)
	}
	profile := *ck.Profile
	profile.ThreadsPerCTA = c.block.Count()
	rec := InvocationRecord{
		Proc: c.proc.Name, Kernel: c.name, Priority: c.proc.Priority,
		Grid: c.grid, Block: c.block,
		Functional: tasks <= maxFunctionalTasks,
	}
	active := s.dev.NumSMs() * profile.CTAsPerSM
	te := time.Duration(float64(tasks) / float64(active) * float64(ck.TaskCost))
	ps := c.proc
	inv := &flepruntime.Invocation{
		Kernel:   c.name,
		Priority: c.proc.Priority,
		Profile:  &profile,
		Tasks:    tasks,
		TaskCost: ck.TaskCost,
		L:        ck.L,
		Te:       te,
		OnFinish: func(v *flepruntime.Invocation) {
			rec.SubmittedAt = v.SubmittedAt()
			rec.FinishedAt = v.FinishedAt()
			if rec.Functional {
				if err := s.runFunctional(c); err != nil && s.failure == nil {
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

// runFunctional interprets the original kernel so host code observes the
// launch's real data effects.
func (s *session) runFunctional(c command) error {
	m := cl.NewMachine(s.p.Original)
	return m.Launch(c.name, cl.LaunchConfig{Grid: c.grid, Block: c.block, Args: c.args})
}
