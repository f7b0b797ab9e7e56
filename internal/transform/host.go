package transform

import (
	"fmt"

	cl "flep/internal/cudalite"
)

// InterceptFunc is the runtime entry point that transformed host code calls
// in place of a raw kernel launch. Its signature (conceptually) is
//
//	flep_intercept("kernel", gridDim, blockDim, sharedBytes, args...)
//
// The FLEP runtime buffers the invocation, decides when to schedule it, and
// signals the host to launch (the S1→S2→S3 state machine of Figure 5).
const InterceptFunc = "flep_intercept"

// TransformHost rewrites, in place, every kernel launch statement in host
// functions of prog into a call to the FLEP runtime interceptor. Only
// launches of kernels listed in kernels are rewritten; a nil map rewrites
// all launches. It returns the number of launch sites rewritten.
func TransformHost(prog *cl.Program, kernels map[string]*KernelInfo) int {
	n := 0
	intercept := func(s cl.Stmt) cl.Stmt {
		ls, ok := s.(*cl.LaunchStmt)
		if !ok {
			return nil
		}
		if _, listed := kernels[ls.Kernel]; kernels != nil && !listed {
			return nil
		}
		n++
		return launchToIntercept(ls)
	}
	for _, fn := range prog.Funcs {
		if fn.Qual == cl.QualHost {
			fn.Body = cl.RewriteStmt(fn.Body, nil, intercept).(*cl.Block)
		}
	}
	return n
}

// launchToIntercept converts k<<<g, b[, sh]>>>(args...) into
// flep_intercept("k", g, b, sh, args...).
func launchToIntercept(ls *cl.LaunchStmt) cl.Stmt {
	call := &cl.Call{Fun: InterceptFunc, Pos: ls.Pos}
	call.Args = append(call.Args, &cl.StrLit{Val: ls.Kernel, Pos: ls.Pos})
	call.Args = append(call.Args, ls.Grid, ls.Block)
	if ls.Shmem != nil {
		call.Args = append(call.Args, ls.Shmem)
	} else {
		call.Args = append(call.Args, &cl.IntLit{Val: 0, Pos: ls.Pos})
	}
	call.Args = append(call.Args, ls.Args...)
	return &cl.ExprStmt{X: call, Pos: ls.Pos}
}

// TransformProgram runs the full FLEP source-to-source pass ("one simple
// pass to transform both CPU and GPU code"): every __global__ kernel gains
// a preemptable persistent-thread form, and every host launch site is
// rewritten to route through the runtime interceptor. The input program is
// not modified.
func TransformProgram(prog *cl.Program, mode Mode) (*cl.Program, map[string]*KernelInfo, error) {
	out := cl.CloneProgram(prog)
	infos := map[string]*KernelInfo{}
	for _, fn := range prog.Funcs {
		if fn.Qual != cl.QualGlobal {
			continue
		}
		next, info, err := TransformKernel(out, fn.Name, mode)
		if err != nil {
			return nil, nil, fmt.Errorf("transform: kernel %s: %w", fn.Name, err)
		}
		out = next
		infos[fn.Name] = info
	}
	TransformHost(out, infos)
	return out, infos, nil
}
