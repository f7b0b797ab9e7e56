// Package transform implements the FLEP compilation engine: it rewrites
// MiniCUDA kernels into preemptable persistent-thread forms (the three
// variants of the paper's Figure 4), rewrites host launch sites to route
// through the FLEP runtime (Figure 5), estimates per-kernel hardware
// resource usage, computes SM occupancy, and searches for the smallest
// amortizing factor L meeting an overhead budget (Section 4.1).
package transform

import (
	"fmt"

	"flep/internal/cudalite"
)

// Resources is the per-CTA hardware footprint of a kernel, derived by a
// static scan of the kernel code (the paper derives the same quantities
// "through a linear scan of the compiled kernel code").
type Resources struct {
	// RegsPerThread estimates registers used by one thread.
	RegsPerThread int
	// StaticSharedBytes is the total __shared__ memory declared by the
	// kernel and its callees (4 bytes per element).
	StaticSharedBytes int
}

const bytesPerElem = 4 // MiniCUDA floats and ints both model 32-bit values

// regCap is the per-thread register budget the FLEP build enforces.
const regCap = 32

// EstimateResources scans the kernel (and its transitive callees in prog)
// and estimates register and shared-memory usage. Shared array sizes must
// be compile-time constant expressions; sizes depending on runtime values
// are rejected, mirroring CUDA's static shared memory rules, and so is a
// nil kernel (prog.Kernel's answer for a name prog lacks).
func EstimateResources(prog *cudalite.Program, kernel *cudalite.FuncDecl) (Resources, error) {
	if kernel == nil {
		return Resources{}, fmt.Errorf("transform: no kernel to scan")
	}
	var res Resources
	for _, fn := range prog.Reachable(kernel) {
		regs, sharedBytes, err := scanFunc(fn)
		if err != nil {
			return Resources{}, err
		}
		res.StaticSharedBytes += sharedBytes
		if regs > res.RegsPerThread {
			res.RegsPerThread = regs
		}
	}
	// FLEP compiles with a register cap of 32 per thread (spilling the
	// excess), the standard occupancy-targeted build on Kepler: it keeps
	// 256-thread kernels thread-limited at 8 CTAs/SM — the paper's "120
	// active CTAs of size 256" configuration.
	if res.RegsPerThread > regCap {
		res.RegsPerThread = regCap
	}
	return res, nil
}

// scanFunc estimates one function's register pressure and sums its
// __shared__ declarations.
func scanFunc(fn *cudalite.FuncDecl) (regs, sharedBytes int, err error) {
	// Baseline registers for control state plus two per scalar local and
	// per parameter: a deliberately simple model in the spirit of a
	// linear scan over compiled code.
	regs = 8 + 2*len(fn.Params)
	cudalite.Inspect(fn.Body, func(n cudalite.Node) bool {
		ds, ok := n.(*cudalite.DeclStmt)
		if !ok {
			return true
		}
		if !ds.Shared {
			for _, d := range ds.Decls {
				if d.ArrayLen == nil {
					regs += 2
				}
			}
			return true
		}
		for _, d := range ds.Decls {
			n := int64(1)
			if d.ArrayLen != nil {
				v, ok := constEval(d.ArrayLen)
				if !ok {
					err = fmt.Errorf("transform: __shared__ %s in %s: size is not a compile-time constant", d.Name, fn.Name)
					return false
				}
				n = v
			}
			sharedBytes += int(n) * bytesPerElem
		}
		return true
	})
	return regs, sharedBytes, err
}

// constEval evaluates integer constant expressions (literals and + - * /
// over them), enough for shared array sizes like [16 * 16].
func constEval(e cudalite.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cudalite.IntLit:
		return x.Val, true
	case *cudalite.Paren:
		return constEval(x.X)
	case *cudalite.Unary:
		if x.Op == cudalite.OpNeg {
			if v, ok := constEval(x.X); ok {
				return -v, true
			}
		}
	case *cudalite.Binary:
		l, ok1 := constEval(x.L)
		r, ok2 := constEval(x.R)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case cudalite.OpAdd:
			return l + r, true
		case cudalite.OpSub:
			return l - r, true
		case cudalite.OpMul:
			return l * r, true
		case cudalite.OpDiv:
			if r != 0 {
				return l / r, true
			}
		case cudalite.OpShl:
			return l << uint(r&63), true
		}
	}
	return 0, false
}
