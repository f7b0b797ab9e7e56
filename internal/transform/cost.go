package transform

import (
	"time"

	cl "flep/internal/cudalite"
)

// CostParams weight the static per-task cost estimate. The defaults are
// calibrated against the benchmark suite: a 256-thread CTA at 8 CTAs/SM
// shares an SM's lanes, so per-task time is the per-thread work scaled by
// threads/lanes.
type CostParams struct {
	// ALUOp is the cost of one arithmetic/logic operation per thread.
	ALUOp time.Duration
	// GlobalOp is the cost of one global-memory access per thread.
	GlobalOp time.Duration
	// SharedOp is the cost of one shared-memory access per thread.
	SharedOp time.Duration
	// MathFunc is the cost of one transcendental (sqrtf, expf, ...).
	MathFunc time.Duration
	// DefaultTrip is the assumed trip count for loops whose bounds are
	// not compile-time constants.
	DefaultTrip int
	// LanesPerSM is the SIMD width available to one CTA at the modeled
	// occupancy (cores per SM / CTAs per SM).
	LanesPerSM int
}

// DefaultCostParams returns weights calibrated on the benchmark suite.
func DefaultCostParams() CostParams {
	return CostParams{
		ALUOp:       2 * time.Nanosecond,
		GlobalOp:    10 * time.Nanosecond,
		SharedOp:    2 * time.Nanosecond,
		MathFunc:    12 * time.Nanosecond,
		DefaultTrip: 16,
		LanesPerSM:  24, // 192 cores / 8 resident CTAs on Kepler
	}
}

// EstimateTaskCost statically estimates the duration of one task (one
// original CTA's work) for a kernel: per-thread operation costs, scaled by
// loop trip counts (constant bounds where derivable, DefaultTrip
// otherwise), times the CTA's thread count over its SM lane share. It is
// deliberately simple — the same spirit as the paper's linear-scan resource
// derivation — and lands within a small factor on the benchmark suite.
func EstimateTaskCost(prog *cl.Program, kernel *cl.FuncDecl, threadsPerCTA int, cp CostParams) time.Duration {
	if cp.LanesPerSM <= 0 {
		cp = DefaultCostParams()
	}
	shared := sharedNames(prog, kernel)
	perThread := costOfBlock(prog, kernel.Body, cp, shared, map[string]bool{kernel.Name: true})
	if threadsPerCTA <= 0 {
		threadsPerCTA = 256
	}
	scale := float64(threadsPerCTA) / float64(cp.LanesPerSM)
	if scale < 1 {
		scale = 1
	}
	return time.Duration(perThread * scale)
}

// sharedNames collects __shared__ identifiers reachable from the kernel so
// accesses through them get shared-memory costs.
func sharedNames(prog *cl.Program, kernel *cl.FuncDecl) map[string]bool {
	shared := map[string]bool{}
	for _, fn := range prog.Reachable(kernel) {
		cl.Inspect(fn, func(n cl.Node) bool {
			if ds, ok := n.(*cl.DeclStmt); ok && ds.Shared {
				for _, d := range ds.Decls {
					shared[d.Name] = true
				}
			}
			return true
		})
	}
	return shared
}

func costOfBlock(prog *cl.Program, s cl.Stmt, cp CostParams, shared map[string]bool, stack map[string]bool) float64 {
	switch x := s.(type) {
	case nil:
		return 0
	case *cl.Block:
		t := 0.0
		for _, st := range x.Stmts {
			t += costOfBlock(prog, st, cp, shared, stack)
		}
		return t
	case *cl.DeclStmt:
		t := 0.0
		for _, d := range x.Decls {
			t += costOfExpr(prog, d.Init, cp, shared, stack)
		}
		return t
	case *cl.ExprStmt:
		return costOfExpr(prog, x.X, cp, shared, stack)
	case *cl.IfStmt:
		// Divergence: both sides execute under SIMT in the worst case;
		// charge the average.
		t := costOfExpr(prog, x.Cond, cp, shared, stack)
		then := costOfBlock(prog, x.Then, cp, shared, stack)
		els := costOfBlock(prog, x.Else, cp, shared, stack)
		return t + (then+els)/2 + float64(cp.ALUOp)
	case *cl.ForStmt:
		trips := tripCount(x, cp.DefaultTrip)
		body := costOfBlock(prog, x.Body, cp, shared, stack) +
			costOfExpr(prog, x.Cond, cp, shared, stack) +
			costOfExpr(prog, x.Post, cp, shared, stack)
		return costOfBlock(prog, x.Init, cp, shared, stack) + float64(trips)*body
	case *cl.WhileStmt:
		body := costOfBlock(prog, x.Body, cp, shared, stack) +
			costOfExpr(prog, x.Cond, cp, shared, stack)
		return float64(cp.DefaultTrip) * body
	case *cl.ReturnStmt:
		return costOfExpr(prog, x.X, cp, shared, stack)
	default:
		return 0
	}
}

// tripCount derives a for loop's constant trip count when the classic
// "i = a; i < b; ++i" shape has constant bounds.
func tripCount(f *cl.ForStmt, def int) int {
	start, okS := int64(0), false
	if ds, ok := f.Init.(*cl.DeclStmt); ok && len(ds.Decls) == 1 && ds.Decls[0].Init != nil {
		start, okS = constEval(ds.Decls[0].Init)
	} else if es, ok := f.Init.(*cl.ExprStmt); ok {
		if as, ok := es.X.(*cl.Assign); ok {
			start, okS = constEval(as.R)
		}
	}
	if bin, ok := f.Cond.(*cl.Binary); ok && okS {
		if end, okE := constEval(bin.R); okE {
			var n int64
			switch bin.Op {
			case cl.OpLt:
				n = end - start
			case cl.OpLe:
				n = end - start + 1
			default:
				return def
			}
			if n >= 0 && n < 1<<20 {
				return int(n)
			}
		}
	}
	return def
}

func costOfExpr(prog *cl.Program, e cl.Expr, cp CostParams, shared map[string]bool, stack map[string]bool) float64 {
	switch x := e.(type) {
	case nil:
		return 0
	case *cl.Ident, *cl.IntLit, *cl.FloatLit, *cl.BoolLit, *cl.NullLit, *cl.StrLit:
		return 0
	case *cl.Member:
		return 0 // builtin index reads are register reads
	case *cl.Paren:
		return costOfExpr(prog, x.X, cp, shared, stack)
	case *cl.Cast:
		return costOfExpr(prog, x.X, cp, shared, stack) + float64(cp.ALUOp)
	case *cl.Unary:
		t := costOfExpr(prog, x.X, cp, shared, stack) + float64(cp.ALUOp)
		if x.Op == cl.OpDeref {
			t += memCost(x.X, cp, shared)
		}
		return t
	case *cl.Postfix:
		return costOfExpr(prog, x.X, cp, shared, stack) + float64(cp.ALUOp)
	case *cl.Binary:
		return costOfExpr(prog, x.L, cp, shared, stack) +
			costOfExpr(prog, x.R, cp, shared, stack) + float64(cp.ALUOp)
	case *cl.Assign:
		t := costOfExpr(prog, x.R, cp, shared, stack) + float64(cp.ALUOp)
		// Writing through an index/deref is a memory store.
		if idx, ok := x.L.(*cl.Index); ok {
			t += costOfExpr(prog, idx.Idx, cp, shared, stack) + memCost(idx.X, cp, shared)
		}
		return t
	case *cl.Cond:
		return costOfExpr(prog, x.C, cp, shared, stack) +
			(costOfExpr(prog, x.T, cp, shared, stack)+costOfExpr(prog, x.E, cp, shared, stack))/2 +
			float64(cp.ALUOp)
	case *cl.Index:
		return costOfExpr(prog, x.Idx, cp, shared, stack) + memCost(x.X, cp, shared)
	case *cl.Call:
		t := 0.0
		for _, a := range x.Args {
			t += costOfExpr(prog, a, cp, shared, stack)
		}
		switch x.Fun {
		case "__syncthreads":
			return t + 2*float64(cp.ALUOp)
		case "atomicAdd", "atomicMax", "atomicExch":
			return t + 2*float64(cp.GlobalOp)
		}
		if _, ok := mathFuncNames[x.Fun]; ok {
			return t + float64(cp.MathFunc)
		}
		if callee := prog.Func(x.Fun); callee != nil && !stack[x.Fun] {
			stack[x.Fun] = true
			t += costOfBlock(prog, callee.Body, cp, shared, stack)
			delete(stack, x.Fun)
		}
		return t
	}
	return 0
}

// memCost classifies an access base as shared or global memory.
func memCost(base cl.Expr, cp CostParams, shared map[string]bool) float64 {
	if id, ok := base.(*cl.Ident); ok && shared[id.Name] {
		return float64(cp.SharedOp)
	}
	return float64(cp.GlobalOp)
}

var mathFuncNames = map[string]bool{
	"sqrt": true, "sqrtf": true, "rsqrtf": true, "fabs": true, "fabsf": true,
	"exp": true, "expf": true, "log": true, "logf": true, "sinf": true,
	"cosf": true, "floorf": true, "ceilf": true, "powf": true,
	"fminf": true, "fmaxf": true, "min": true, "max": true, "abs": true,
}
