package transform

import (
	"fmt"
	"strings"

	cl "flep/internal/cudalite"
)

// Mode selects which of the paper's Figure 4 kernel forms to generate.
type Mode int

// Transformation modes.
const (
	// ModeTemporalNaive is Figure 4(a): poll the preemption flag before
	// every task.
	ModeTemporalNaive Mode = iota
	// ModeTemporal is Figure 4(b): poll once per L tasks (the amortizing
	// factor) and yield the whole GPU when the flag is set.
	ModeTemporal
	// ModeSpatial is Figure 4(c): poll once per L tasks; CTAs whose host
	// SM ID is below *flep_preempt yield, the rest keep running.
	ModeSpatial
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTemporalNaive:
		return "temporal-naive"
	case ModeTemporal:
		return "temporal"
	case ModeSpatial:
		return "spatial"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Reserved prefix for identifiers introduced by the transformation.
const flepPrefix = "flep_"

// Names of the parameters appended to the transformed kernel, in order.
const (
	ParamPreempt  = "flep_preempt"   // volatile unsigned int*: 0 = run; temporal: !=0 = yield; spatial: yield SMs with id < value
	ParamNextTask = "flep_next_task" // int*: device-resident task counter (survives preemption)
	ParamNumTasks = "flep_num_tasks" // int: total tasks = original grid size
	ParamGridX    = "flep_grid_x"    // int: original gridDim.x
	ParamGridY    = "flep_grid_y"    // int: original gridDim.y
	ParamL        = "flep_L"         // int: amortizing factor (absent in naive mode)
)

// KernelInfo describes the artifacts produced for one kernel.
type KernelInfo struct {
	Original    string // original kernel name
	TaskFunc    string // extracted __device__ per-task function
	Preemptable string // generated persistent-thread __global__ kernel
	Mode        Mode
	// ExtraParams lists the appended parameter names in order; the
	// caller must pass them after the original arguments.
	ExtraParams []string
}

// TransformKernel rewrites the named __global__ kernel of prog into a
// preemptable persistent-thread form. It returns a new program (the input
// is not modified) containing the original functions plus the extracted
// task function and the preemptable kernel, together with a description of
// the generated artifacts.
func TransformKernel(prog *cl.Program, name string, mode Mode) (*cl.Program, *KernelInfo, error) {
	orig := prog.Kernel(name)
	if orig == nil {
		return nil, nil, fmt.Errorf("transform: no __global__ kernel %q", name)
	}
	if err := checkNoReservedIdents(orig); err != nil {
		return nil, nil, err
	}
	if err := checkNo3D(orig); err != nil {
		return nil, nil, err
	}

	out := cl.CloneProgram(prog)

	info := &KernelInfo{
		Original:    name,
		TaskFunc:    name + "_flep_task",
		Preemptable: name + "_flep",
		Mode:        mode,
	}
	info.ExtraParams = []string{ParamPreempt, ParamNextTask, ParamNumTasks, ParamGridX, ParamGridY}
	if mode != ModeTemporalNaive {
		info.ExtraParams = append(info.ExtraParams, ParamL)
	}
	if out.Func(info.TaskFunc) != nil || out.Func(info.Preemptable) != nil {
		return nil, nil, fmt.Errorf("transform: kernel %q appears to be already transformed", name)
	}

	task := buildTaskFunc(orig, info)
	wrapper := buildPersistentKernel(orig, info, mode)
	out.Funcs = append(out.Funcs, task, wrapper)
	return out, info, nil
}

// checkNoReservedIdents rejects kernels that already use the flep_ prefix.
func checkNoReservedIdents(fn *cl.FuncDecl) error {
	var bad string
	for _, p := range fn.Params {
		if strings.HasPrefix(p.Name, flepPrefix) {
			bad = p.Name
		}
	}
	cl.Inspect(fn.Body, func(n cl.Node) bool {
		switch x := n.(type) {
		case *cl.Ident:
			if strings.HasPrefix(x.Name, flepPrefix) {
				bad = x.Name
			}
		case *cl.DeclStmt:
			for _, d := range x.Decls {
				if strings.HasPrefix(d.Name, flepPrefix) {
					bad = d.Name
				}
			}
		}
		return bad == ""
	})
	if bad != "" {
		return fmt.Errorf("transform: kernel %s uses reserved identifier %q", fn.Name, bad)
	}
	return nil
}

// checkNo3D rejects kernels indexing blockIdx.z / gridDim.z: the task
// linearization supports 1D and 2D grids, which covers the benchmark suite.
func checkNo3D(fn *cl.FuncDecl) error {
	var err error
	cl.Inspect(fn.Body, func(n cl.Node) bool {
		m, ok := n.(*cl.Member)
		if !ok || m.Name != "z" {
			return true
		}
		if id, ok := m.X.(*cl.Ident); ok && (id.Name == "blockIdx" || id.Name == "gridDim") {
			err = fmt.Errorf("transform: kernel %s uses %s.z; 3D grids are not supported", fn.Name, id.Name)
			return false
		}
		return true
	})
	return err
}

// buildTaskFunc extracts the original kernel body into a __device__
// function taking the original parameters plus the task's block coordinates
// and the original grid dimensions. Early returns in the body become plain
// function returns, so a task never terminates the persistent CTA.
func buildTaskFunc(orig *cl.FuncDecl, info *KernelInfo) *cl.FuncDecl {
	fn := &cl.FuncDecl{
		Qual: cl.QualDevice,
		Ret:  cl.Type{Base: cl.TVoid},
		Name: info.TaskFunc,
		Pos:  orig.Pos,
	}
	for _, p := range orig.Params {
		cp := *p
		fn.Params = append(fn.Params, &cp)
	}
	fn.Params = append(fn.Params,
		&cl.Param{Type: intType(), Name: "flep_bx"},
		&cl.Param{Type: intType(), Name: "flep_by"},
		&cl.Param{Type: intType(), Name: ParamGridX},
		&cl.Param{Type: intType(), Name: ParamGridY},
	)
	fn.Body = cl.RewriteStmt(orig.Body, taskCoordinate, nil).(*cl.Block)
	return fn
}

// taskCoords maps the builtins that name a CTA's place in the original grid
// to the task function's parameters that carry it instead.
var taskCoords = map[string]string{
	"blockIdx.x": "flep_bx", "blockIdx.y": "flep_by",
	"gridDim.x": ParamGridX, "gridDim.y": ParamGridY,
}

// taskCoordinate is the expression hook that puts the parameter's Ident in
// the place of such a Member.
func taskCoordinate(e cl.Expr) cl.Expr {
	if m, ok := e.(*cl.Member); ok {
		if id, ok := m.X.(*cl.Ident); ok {
			if name, ok := taskCoords[id.Name+"."+m.Name]; ok {
				return &cl.Ident{Name: name, Pos: id.Pos}
			}
		}
	}
	return nil
}

// buildPersistentKernel generates the __global__ wrapper of Figure 4.
func buildPersistentKernel(orig *cl.FuncDecl, info *KernelInfo, mode Mode) *cl.FuncDecl {
	fn := &cl.FuncDecl{
		Qual: cl.QualGlobal,
		Ret:  cl.Type{Base: cl.TVoid},
		Name: info.Preemptable,
		Pos:  orig.Pos,
	}
	for _, p := range orig.Params {
		cp := *p
		fn.Params = append(fn.Params, &cp)
	}
	fn.Params = append(fn.Params,
		&cl.Param{Type: cl.Type{Base: cl.TUInt, Ptr: 1, Volatile: true}, Name: ParamPreempt},
		&cl.Param{Type: cl.Type{Base: cl.TInt, Ptr: 1}, Name: ParamNextTask},
		&cl.Param{Type: intType(), Name: ParamNumTasks},
		&cl.Param{Type: intType(), Name: ParamGridX},
		&cl.Param{Type: intType(), Name: ParamGridY},
	)
	if mode != ModeTemporalNaive {
		fn.Params = append(fn.Params, &cl.Param{Type: intType(), Name: ParamL})
	}

	body := &cl.Block{}
	// __shared__ int flep_task; __shared__ int flep_stop;
	body.Stmts = append(body.Stmts,
		sharedIntDecl("flep_task"),
		sharedIntDecl("flep_stop"),
	)

	// The preemption check: leader polls the flag once per round and
	// broadcasts via shared memory (the paper's single-reader
	// optimization), then every thread conditionally returns.
	var cond cl.Expr
	switch mode {
	case ModeSpatial:
		// __smid() < (int)*flep_preempt
		cond = bin(cl.OpLt,
			&cl.Call{Fun: "__smid"},
			&cl.Cast{Type: intType(), X: deref(ParamPreempt)},
		)
	default:
		// *flep_preempt != 0
		cond = bin(cl.OpNe, deref(ParamPreempt), intLit(0))
	}
	checkStmts := []cl.Stmt{
		leaderOnly(&cl.IfStmt{
			Cond: cond,
			Then: block(exprStmt(assign("flep_stop", intLit(1)))),
			Else: block(exprStmt(assign("flep_stop", intLit(0)))),
		}),
		syncthreads(),
		&cl.IfStmt{
			Cond: bin(cl.OpEq, ident("flep_stop"), intLit(1)),
			Then: block(&cl.ReturnStmt{}),
		},
	}

	// The task pull + execute sequence (pull_task / process in Fig. 4).
	pullStmts := []cl.Stmt{
		leaderOnly(exprStmt(assign("flep_task",
			&cl.Call{Fun: "atomicAdd", Args: []cl.Expr{
				ident(ParamNextTask), intLit(1),
			}}))),
		syncthreads(),
		&cl.IfStmt{
			Cond: bin(cl.OpGe, ident("flep_task"), ident(ParamNumTasks)),
			Then: block(&cl.ReturnStmt{}),
		},
		exprStmt(taskCall(orig, info)),
		syncthreads(),
	}

	loop := &cl.WhileStmt{Cond: intLit(1)}
	switch mode {
	case ModeTemporalNaive:
		loop.Body = block(append(checkStmts, pullStmts...)...)
	default:
		inner := &cl.ForStmt{
			Init: &cl.DeclStmt{Type: intType(), Decls: []*cl.Declarator{{Name: "flep_i", Init: intLit(0)}}},
			Cond: bin(cl.OpLt, ident("flep_i"), ident(ParamL)),
			Post: &cl.Unary{Op: cl.OpPreInc, X: ident("flep_i")},
			Body: block(pullStmts...),
		}
		loop.Body = block(append(checkStmts, inner)...)
	}
	body.Stmts = append(body.Stmts, loop)
	fn.Body = body
	return fn
}

// taskCall builds k_flep_task(origArgs..., task%gx, task/gx, gx, gy).
func taskCall(orig *cl.FuncDecl, info *KernelInfo) cl.Expr {
	c := &cl.Call{Fun: info.TaskFunc}
	for _, p := range orig.Params {
		c.Args = append(c.Args, ident(p.Name))
	}
	c.Args = append(c.Args,
		bin(cl.OpRem, ident("flep_task"), ident(ParamGridX)),
		bin(cl.OpDiv, ident("flep_task"), ident(ParamGridX)),
		ident(ParamGridX),
		ident(ParamGridY),
	)
	return c
}

// ---- small AST constructors ----

func intType() cl.Type           { return cl.Type{Base: cl.TInt} }
func ident(n string) *cl.Ident   { return &cl.Ident{Name: n} }
func intLit(v int64) *cl.IntLit  { return &cl.IntLit{Val: v} }
func exprStmt(e cl.Expr) cl.Stmt { return &cl.ExprStmt{X: e} }
func block(ss ...cl.Stmt) *cl.Block {
	return &cl.Block{Stmts: ss}
}

func bin(op cl.Op, l, r cl.Expr) cl.Expr { return &cl.Binary{Op: op, L: l, R: r} }

func deref(name string) cl.Expr { return &cl.Unary{Op: cl.OpDeref, X: ident(name)} }

func assign(name string, v cl.Expr) cl.Expr {
	return &cl.Assign{Op: cl.OpAssign, L: ident(name), R: v}
}

func sharedIntDecl(name string) cl.Stmt {
	return &cl.DeclStmt{Shared: true, Type: intType(), Decls: []*cl.Declarator{{Name: name}}}
}

func syncthreads() cl.Stmt { return exprStmt(&cl.Call{Fun: "__syncthreads"}) }

// leaderOnly wraps s in "if (threadIdx.x == 0 && threadIdx.y == 0) { s }".
func leaderOnly(s cl.Stmt) cl.Stmt {
	tx := &cl.Member{X: ident("threadIdx"), Name: "x"}
	ty := &cl.Member{X: ident("threadIdx"), Name: "y"}
	return &cl.IfStmt{
		Cond: bin(cl.OpAnd,
			bin(cl.OpEq, tx, intLit(0)),
			bin(cl.OpEq, ty, intLit(0))),
		Then: block(s),
	}
}
