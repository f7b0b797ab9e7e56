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

	wrapper, err := buildPersistentKernel(orig, mode)
	if err != nil {
		return nil, nil, fmt.Errorf("transform: kernel %s: %w", name, err)
	}
	out.Funcs = append(out.Funcs, buildTaskFunc(orig, info), wrapper)
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
	for _, name := range []string{"flep_bx", "flep_by", ParamGridX, ParamGridY} {
		fn.Params = append(fn.Params, &cl.Param{Type: cl.Type{Base: cl.TInt}, Name: name})
	}
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

// figure4 is the persistent-thread kernel of the paper's Figure 4 as
// MiniCUDA with four holes: KERNEL is the original kernel's name, PARAMS its
// parameter list, ARGS the same names as arguments, and YIELD the test of the
// preemption flag. The CTA's leader polls the flag once per round and
// broadcasts the verdict through shared memory (the paper's single-reader
// optimization); every thread then returns or goes on to PULL. The flep_
// names are the Param* constants: ExtraParams tells the host what to pass.
const figure4 = `
__global__ void KERNEL_flep(PARAMS, volatile unsigned int* flep_preempt, int* flep_next_task, int flep_num_tasks, int flep_grid_x, int flep_grid_y, int flep_L) {
    __shared__ int flep_task;
    __shared__ int flep_stop;
    while (1) {
        if (threadIdx.x == 0 && threadIdx.y == 0) {
            if (YIELD) {
                flep_stop = 1;
            } else {
                flep_stop = 0;
            }
        }
        __syncthreads();
        if (flep_stop == 1) {
            return;
        }
        PULL
    }
}`

// figure4Pull is the figure's pull_task / process step: the leader claims the
// next task, and the CTA runs it at its coordinates in the original grid.
const figure4Pull = `
        if (threadIdx.x == 0 && threadIdx.y == 0) {
            flep_task = atomicAdd(flep_next_task, 1);
        }
        __syncthreads();
        if (flep_task >= flep_num_tasks) {
            return;
        }
        KERNEL_flep_task(ARGS, flep_task % flep_grid_x, flep_task / flep_grid_x, flep_grid_x, flep_grid_y);
        __syncthreads();`

// buildPersistentKernel fills Figure 4 in for one kernel and one of its
// three forms and parses the result.
func buildPersistentKernel(orig *cl.FuncDecl, mode Mode) (*cl.FuncDecl, error) {
	var params, args string // each ends in the comma its hole is written with
	for _, p := range orig.Params {
		params += p.Type.String() + " " + p.Name + ","
		args += p.Name + ","
	}
	yield := "*flep_preempt != 0" // forms (a), (b): the whole GPU yields
	if mode == ModeSpatial {
		yield = "__smid() < (int)*flep_preempt" // form (c): only the SMs below the flag's value
	}
	src, pull := figure4, figure4Pull
	if mode == ModeTemporalNaive { // form (a): poll before every task, so no flep_L
		src = strings.Replace(src, ", int flep_L", "", 1)
	} else { // forms (b), (c): poll once per flep_L tasks
		pull = "for (int flep_i = 0; flep_i < flep_L; ++flep_i) {" + pull + "}"
	}
	src = strings.Replace(src, "PULL", pull, 1)
	src = strings.NewReplacer("KERNEL", orig.Name, "PARAMS,", params, "ARGS,", args, "YIELD", yield).Replace(src)
	return cl.ParseKernel(src)
}
