package cudalite

import (
	"fmt"
	"iter"
	"slices"
)

// RuntimeError is an error raised while interpreting a kernel.
type RuntimeError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func rtErr(pos Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Machine interprets MiniCUDA kernels with SIMT semantics: CTAs execute
// sequentially (hardware interleaving is the gpu package's concern), and
// the threads of one CTA interleave at __syncthreads barriers. One thread
// runs at a time, so a run's interleaving, and with it every result, is a
// function of the program and its inputs.
type Machine struct {
	prog *Program

	// StepBudget caps interpreted statements+expressions per thread, to
	// turn accidental infinite loops into errors. 0 means the default.
	StepBudget int64

	// OnVolatileRead, if set, is invoked before every load from a Buffer
	// with Volatile set. Tests use it to flip preemption flags at
	// realistic points (each poll of temp_P / spa_P).
	OnVolatileRead func(b *Buffer, idx int)

	// HostCall, if set, resolves calls to functions the program does not
	// define when interpreting host code (CallHost): the FLEP runtime
	// interceptor (flep_intercept), host sleeps, and similar externals.
	// Returning handled=false falls through to an undefined-function
	// error. Device code never consults it.
	HostCall func(name string, args []Value) (v Value, handled bool, err error)
}

const defaultStepBudget = 50_000_000

// NewMachine builds an interpreter for prog.
func NewMachine(prog *Program) *Machine { return &Machine{prog: prog} }

// CallHost interprets a host (unqualified) function: a single sequential
// thread with no CTA context. Calls to undefined functions are routed to
// the machine's HostCall hook, which is how transformed host programs reach
// the FLEP runtime.
func (m *Machine) CallHost(name string, args []Value) error {
	fn := m.prog.Func(name)
	if fn == nil {
		return fmt.Errorf("cudalite: no function %q", name)
	}
	if fn.Qual != QualHost {
		return fmt.Errorf("cudalite: %q is %s code, not host code", name, fn.Qual)
	}
	if len(args) != len(fn.Params) {
		return fmt.Errorf("cudalite: host %q wants %d args, got %d", name, len(fn.Params), len(args))
	}
	tc := &threadCtx{
		m: m, bdim: Dim3{X: 1, Y: 1, Z: 1}, gdim: Dim3{X: 1, Y: 1, Z: 1},
		budget: m.stepBudget(),
	}
	return tc.callFunc(fn, args)
}

// LaunchConfig describes one kernel launch.
type LaunchConfig struct {
	Grid  Dim3
	Block Dim3
	Args  []Value

	// SMID maps a linear CTA index to the SM hosting it; the __smid()
	// intrinsic returns this. Defaults to CTA%15 when nil.
	SMID func(ctaLinear int) int

	// OnCTADone runs after each CTA completes (CTAs are sequential).
	OnCTADone func(ctaLinear int)
}

// Launch runs the named __global__ kernel to completion.
func (m *Machine) Launch(name string, cfg LaunchConfig) error {
	fn := m.prog.Kernel(name)
	if fn == nil {
		return fmt.Errorf("cudalite: no __global__ kernel %q", name)
	}
	if len(cfg.Args) != len(fn.Params) {
		return fmt.Errorf("cudalite: kernel %q wants %d args, got %d", name, len(fn.Params), len(cfg.Args))
	}
	grid := cfg.Grid.Norm()
	block := cfg.Block.Norm()
	nThreads := block.Count()
	if nThreads == 0 || nThreads > 1024 {
		return fmt.Errorf("cudalite: bad block size %d", nThreads)
	}
	smid := cfg.SMID
	if smid == nil {
		smid = func(cta int) int { return cta % 15 }
	}
	barriers := false
	for _, f := range m.prog.Reachable(fn) {
		Inspect(f, func(n Node) bool {
			if c, ok := n.(*Call); ok && c.Fun == "__syncthreads" {
				barriers = true
			}
			return !barriers
		})
	}

	cta := 0
	for bz := 0; bz < grid.Z; bz++ {
		for by := 0; by < grid.Y; by++ {
			for bx := 0; bx < grid.X; bx++ {
				bid := Dim3{X: bx, Y: by, Z: bz}
				if err := m.runCTA(fn, cfg.Args, bid, grid, block, smid(cta), barriers, cta%2 == 1); err != nil {
					return err
				}
				if cfg.OnCTADone != nil {
					cfg.OnCTADone(cta)
				}
				cta++
			}
		}
	}
	return nil
}

// runCTA executes one CTA, sharing shared memory among its threads. A round
// resumes every live thread until it reaches __syncthreads or returns, and
// the barrier releases when every thread still running has arrived. Rounds
// alternate between ascending and descending thread order, the first one
// descending if reversed (odd CTAs), so a program that leans on an order
// the hardware does not promise (a missing barrier) sees both from a CTA's
// first barrier on. With barriers set each thread is a coroutine; without,
// a thread never yields, and a plain call is its whole first round. The
// first error in resume order abandons the CTA.
func (m *Machine) runCTA(fn *FuncDecl, args []Value, bid, grid, block Dim3, smid int, barriers, reversed bool) error {
	shared, err := m.allocShared(fn, args, grid, block)
	if err != nil {
		return err
	}
	var live []func() (error, bool)
	for tz := 0; tz < block.Z; tz++ {
		for ty := 0; ty < block.Y; ty++ {
			for tx := 0; tx < block.X; tx++ {
				tc := &threadCtx{
					m: m, tid: Dim3{X: tx, Y: ty, Z: tz}, bid: bid, bdim: block, gdim: grid,
					shared: shared, sync: noBarrier, smid: smid,
					budget: m.stepBudget(),
				}
				if !barriers {
					live = append(live, func() (error, bool) { return tc.callFunc(fn, args), false })
					continue
				}
				next, stop := iter.Pull(func(yield func(error) bool) {
					tc.sync = func() bool { return yield(nil) }
					if err := tc.callFunc(fn, args); err != nil {
						yield(err)
					}
				})
				defer stop()
				live = append(live, next)
			}
		}
	}
	if reversed {
		slices.Reverse(live)
	}
	for len(live) > 0 {
		waiting := live[:0]
		for _, next := range live {
			err, running := next()
			if err != nil {
				return err
			}
			if running {
				waiting = append(waiting, next)
			}
		}
		slices.Reverse(waiting)
		live = waiting
	}
	return nil
}

// noBarrier is the sync of a thread whose kernel reaches no __syncthreads:
// it is never called.
func noBarrier() bool { return true }

func (m *Machine) stepBudget() int64 {
	if m.StepBudget > 0 {
		return m.StepBudget
	}
	return defaultStepBudget
}

// allocShared evaluates the __shared__ declarations of the kernel and every
// function it transitively calls, once per CTA (CUDA static shared
// semantics). Shared declarations must not have initializers; sizes may
// reference kernel parameters and builtin dims.
func (m *Machine) allocShared(fn *FuncDecl, args []Value, grid, block Dim3) (map[string]*Buffer, error) {
	shared := map[string]*Buffer{}
	var walkErr error
	for _, reach := range m.prog.Reachable(fn) {
		m.allocSharedIn(reach, fn, args, grid, block, shared, &walkErr)
		if walkErr != nil {
			return nil, walkErr
		}
	}
	return shared, nil
}

func (m *Machine) allocSharedIn(in, kernel *FuncDecl, args []Value, grid, block Dim3, shared map[string]*Buffer, walkErr *error) {
	Inspect(in.Body, func(n Node) bool {
		ds, ok := n.(*DeclStmt)
		if !ok || !ds.Shared || *walkErr != nil {
			return true
		}
		for _, d := range ds.Decls {
			if d.Init != nil {
				*walkErr = rtErr(d.Pos, "__shared__ %s: initializers are not supported", d.Name)
				return false
			}
			n := 1
			if d.ArrayLen != nil {
				tc := &threadCtx{m: m, bdim: block, gdim: grid, budget: 1 << 20}
				tc.pushScope()
				for i, p := range kernel.Params {
					tc.declare(p.Name, p.Type, args[i], nil)
				}
				v, err := tc.eval(d.ArrayLen)
				if err != nil {
					*walkErr = err
					return false
				}
				n = int(v.Int())
				if n <= 0 {
					*walkErr = rtErr(d.Pos, "__shared__ %s: non-positive size %d", d.Name, n)
					return false
				}
			}
			buf := &Buffer{Name: d.Name, Kind: ds.Type.Base}
			if ds.Type.Base == TFloat {
				buf.F = make([]float64, n)
			} else {
				buf.I = make([]int64, n)
			}
			shared[d.Name] = buf
		}
		return true
	})
}

// cell is one named variable slot in a scope.
type cell struct {
	typ Type
	val Value   // scalar storage
	buf *Buffer // local array storage (arrays decay to pointers)
}

// ctrl is the statement-level control-flow result.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// threadCtx is the per-thread interpreter state.
type threadCtx struct {
	m      *Machine
	tid    Dim3
	bid    Dim3
	bdim   Dim3
	gdim   Dim3
	shared map[string]*Buffer
	sync   func() bool // __syncthreads: false when the CTA abandons the thread; nil in host code
	smid   int

	scopes []map[string]*cell
	retVal Value
	budget int64
	depth  int
}

func (tc *threadCtx) pushScope() { tc.scopes = append(tc.scopes, map[string]*cell{}) }
func (tc *threadCtx) popScope()  { tc.scopes = tc.scopes[:len(tc.scopes)-1] }

func (tc *threadCtx) lookup(name string) *cell {
	for i := len(tc.scopes) - 1; i >= 0; i-- {
		if c, ok := tc.scopes[i][name]; ok {
			return c
		}
	}
	return nil
}

// declare binds a new variable in the innermost scope, converting the
// initial value to the declared type.
func (tc *threadCtx) declare(name string, typ Type, v Value, buf *Buffer) {
	c := &cell{typ: typ, buf: buf}
	if buf == nil {
		c.val = convert(v, typ)
	}
	tc.scopes[len(tc.scopes)-1][name] = c
}

// convert coerces v to the declared type t (C assignment semantics).
func convert(v Value, t Type) Value {
	if t.IsPointer() {
		if v.Kind == KPtr {
			return v
		}
		if v.Int() == 0 {
			return NullValue()
		}
		return v
	}
	switch t.Base {
	case TFloat:
		return FloatValue(v.Float())
	case TBool:
		return BoolValue(v.Bool())
	default:
		return IntValue(v.Int())
	}
}

// callFunc executes fn with args in a fresh scope and returns its value in
// tc.retVal.
func (tc *threadCtx) callFunc(fn *FuncDecl, args []Value) error {
	if tc.depth >= 64 {
		return rtErr(fn.Pos, "call depth limit exceeded in %s", fn.Name)
	}
	tc.depth++
	base := len(tc.scopes)
	tc.pushScope()
	for i, p := range fn.Params {
		tc.declare(p.Name, p.Type, args[i], nil)
	}
	_, err := tc.execStmt(fn.Body)
	tc.scopes = tc.scopes[:base]
	tc.depth--
	return err
}

func (tc *threadCtx) step(pos Pos) error {
	tc.budget--
	if tc.budget < 0 {
		return rtErr(pos, "step budget exceeded (possible infinite loop)")
	}
	return nil
}

// execStmt executes one statement.
func (tc *threadCtx) execStmt(s Stmt) (ctrl, error) {
	if err := tc.step(s.NodePos()); err != nil {
		return ctrlNone, err
	}
	switch x := s.(type) {
	case *Block:
		tc.pushScope()
		defer tc.popScope()
		for _, st := range x.Stmts {
			c, err := tc.execStmt(st)
			if err != nil || c != ctrlNone {
				return c, err
			}
		}
		return ctrlNone, nil
	case *DeclStmt:
		return tc.execDecl(x)
	case *ExprStmt:
		_, err := tc.eval(x.X)
		return ctrlNone, err
	case *IfStmt:
		cond, err := tc.eval(x.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if cond.Bool() {
			return tc.execStmt(x.Then)
		}
		if x.Else != nil {
			return tc.execStmt(x.Else)
		}
		return ctrlNone, nil
	case *ForStmt:
		tc.pushScope()
		defer tc.popScope()
		if x.Init != nil {
			if c, err := tc.execStmt(x.Init); err != nil || c != ctrlNone {
				return c, err
			}
		}
		for {
			if x.Cond != nil {
				cond, err := tc.eval(x.Cond)
				if err != nil {
					return ctrlNone, err
				}
				if !cond.Bool() {
					break
				}
			}
			c, err := tc.execStmt(x.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlReturn {
				return c, nil
			}
			if c == ctrlBreak {
				break
			}
			if x.Post != nil {
				if _, err := tc.eval(x.Post); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil
	case *WhileStmt:
		for {
			cond, err := tc.eval(x.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !cond.Bool() {
				return ctrlNone, nil
			}
			c, err := tc.execStmt(x.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlReturn {
				return c, nil
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
		}
	case *ReturnStmt:
		if x.X != nil {
			v, err := tc.eval(x.X)
			if err != nil {
				return ctrlNone, err
			}
			tc.retVal = v
		}
		return ctrlReturn, nil
	case *BreakStmt:
		return ctrlBreak, nil
	case *ContinueStmt:
		return ctrlContinue, nil
	case *LaunchStmt:
		return ctrlNone, rtErr(x.Pos, "kernel launch inside device code is not supported")
	}
	return ctrlNone, rtErr(s.NodePos(), "unknown statement %T", s)
}

func (tc *threadCtx) execDecl(x *DeclStmt) (ctrl, error) {
	for _, d := range x.Decls {
		if x.Shared {
			// Shared buffers are allocated per-CTA before threads start;
			// the declaration itself is a no-op at thread level.
			if tc.shared == nil || tc.shared[d.Name] == nil {
				return ctrlNone, rtErr(d.Pos, "__shared__ %s not pre-allocated", d.Name)
			}
			continue
		}
		if d.ArrayLen != nil {
			n, err := tc.eval(d.ArrayLen)
			if err != nil {
				return ctrlNone, err
			}
			ln := int(n.Int())
			if ln <= 0 {
				return ctrlNone, rtErr(d.Pos, "array %s: non-positive size %d", d.Name, ln)
			}
			buf := &Buffer{Name: d.Name, Kind: x.Type.Base}
			if x.Type.Base == TFloat {
				buf.F = make([]float64, ln)
			} else {
				buf.I = make([]int64, ln)
			}
			tc.declare(d.Name, x.Type, Value{}, buf)
			continue
		}
		var init Value
		if d.Init != nil {
			v, err := tc.eval(d.Init)
			if err != nil {
				return ctrlNone, err
			}
			init = v
		}
		tc.declare(d.Name, x.Type, init, nil)
	}
	return ctrlNone, nil
}
