package cudalite

import "math"

// evalCall dispatches builtin intrinsics, math functions, and user-defined
// __device__ function calls.
func (tc *threadCtx) evalCall(x *Call) (Value, error) {
	switch x.Fun {
	case "__syncthreads":
		if len(x.Args) != 0 {
			return Value{}, rtErr(x.Pos, "__syncthreads takes no arguments")
		}
		if tc.sync == nil {
			return Value{}, rtErr(x.Pos, "__syncthreads outside kernel execution")
		}
		if !tc.sync() {
			return Value{}, rtErr(x.Pos, "thread abandoned at the barrier")
		}
		return Value{}, nil
	case "__smid":
		if len(x.Args) != 0 {
			return Value{}, rtErr(x.Pos, "__smid takes no arguments")
		}
		return IntValue(int64(tc.smid)), nil
	case "atomicAdd":
		return tc.evalAtomic(x, func(old, d Value) Value {
			if old.Kind == KFloat {
				return FloatValue(old.F + d.Float())
			}
			return IntValue(old.I + d.Int())
		})
	case "atomicMax":
		return tc.evalAtomic(x, func(old, d Value) Value {
			if old.Kind == KFloat {
				return FloatValue(math.Max(old.F, d.Float()))
			}
			if d.Int() > old.I {
				return IntValue(d.Int())
			}
			return old
		})
	case "atomicExch":
		return tc.evalAtomic(x, func(old, d Value) Value {
			if old.Kind == KFloat {
				return FloatValue(d.Float())
			}
			return IntValue(d.Int())
		})
	}
	// Evaluate arguments once for the remaining call forms.
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := tc.eval(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	if x.Fun == "dim3" {
		// dim3(x[, y[, z]]) packs launch geometry into an integer value.
		d := Dim3{X: 1, Y: 1, Z: 1}
		if len(args) > 0 {
			d.X = int(args[0].Int())
		}
		if len(args) > 1 {
			d.Y = int(args[1].Int())
		}
		if len(args) > 2 {
			d.Z = int(args[2].Int())
		}
		return PackDim3(d), nil
	}
	if fn, ok := mathBuiltins[x.Fun]; ok {
		return fn(args, x.Pos)
	}
	// User-defined __device__ (or host helper) function.
	callee := tc.m.prog.Func(x.Fun)
	if callee == nil {
		if tc.m.HostCall != nil && tc.sync == nil {
			v, handled, err := tc.m.HostCall(x.Fun, args)
			if handled {
				if err != nil {
					return Value{}, rtErr(x.Pos, "%s: %v", x.Fun, err)
				}
				return v, nil
			}
		}
		return Value{}, rtErr(x.Pos, "undefined function %q", x.Fun)
	}
	if callee.Qual == QualGlobal {
		return Value{}, rtErr(x.Pos, "cannot call __global__ kernel %q as a function", x.Fun)
	}
	if len(args) != len(callee.Params) {
		return Value{}, rtErr(x.Pos, "%s wants %d args, got %d", x.Fun, len(callee.Params), len(args))
	}
	saved := tc.retVal
	tc.retVal = Value{}
	if err := tc.callFunc(callee, args); err != nil {
		return Value{}, err
	}
	ret := tc.retVal
	tc.retVal = saved
	return convert(ret, callee.Ret), nil
}

// evalAtomic implements read-modify-write builtins: first arg is a pointer
// expression, second the operand. It returns the old value, matching CUDA
// semantics; it is atomic because no other thread runs until this one
// reaches a barrier or returns.
func (tc *threadCtx) evalAtomic(x *Call, op func(old, d Value) Value) (Value, error) {
	if len(x.Args) != 2 {
		return Value{}, rtErr(x.Pos, "%s wants 2 args", x.Fun)
	}
	ptr, err := tc.eval(x.Args[0])
	if err != nil {
		return Value{}, err
	}
	if ptr.Kind != KPtr || ptr.P.IsNil() {
		return Value{}, rtErr(x.Pos, "%s: first argument is not a valid pointer", x.Fun)
	}
	d, err := tc.eval(x.Args[1])
	if err != nil {
		return Value{}, err
	}
	old, err := ptr.P.Buf.Load(ptr.P.Off)
	if err != nil {
		return Value{}, rtErr(x.Pos, "%v", err)
	}
	if err := ptr.P.Buf.Store(ptr.P.Off, op(old, d)); err != nil {
		return Value{}, rtErr(x.Pos, "%v", err)
	}
	return old, nil
}

type mathFn func(args []Value, pos Pos) (Value, error)

func unary1(name string, f func(float64) float64) mathFn {
	return func(args []Value, pos Pos) (Value, error) {
		if len(args) != 1 {
			return Value{}, rtErr(pos, "%s wants 1 arg", name)
		}
		return FloatValue(f(args[0].Float())), nil
	}
}

func binary2(name string, f func(a, b float64) float64) mathFn {
	return func(args []Value, pos Pos) (Value, error) {
		if len(args) != 2 {
			return Value{}, rtErr(pos, "%s wants 2 args", name)
		}
		return FloatValue(f(args[0].Float(), args[1].Float())), nil
	}
}

var mathBuiltins = map[string]mathFn{
	"sqrt":   unary1("sqrt", math.Sqrt),
	"sqrtf":  unary1("sqrtf", math.Sqrt),
	"rsqrtf": unary1("rsqrtf", func(v float64) float64 { return 1 / math.Sqrt(v) }),
	"fabs":   unary1("fabs", math.Abs),
	"fabsf":  unary1("fabsf", math.Abs),
	"exp":    unary1("exp", math.Exp),
	"expf":   unary1("expf", math.Exp),
	"log":    unary1("log", math.Log),
	"logf":   unary1("logf", math.Log),
	"sinf":   unary1("sinf", math.Sin),
	"cosf":   unary1("cosf", math.Cos),
	"floorf": unary1("floorf", math.Floor),
	"ceilf":  unary1("ceilf", math.Ceil),
	"powf":   binary2("powf", math.Pow),
	"fminf":  binary2("fminf", math.Min),
	"fmaxf":  binary2("fmaxf", math.Max),
	"min": func(args []Value, pos Pos) (Value, error) {
		if len(args) != 2 {
			return Value{}, rtErr(pos, "min wants 2 args")
		}
		a, b := args[0], args[1]
		if a.Kind == KFloat || b.Kind == KFloat {
			return FloatValue(math.Min(a.Float(), b.Float())), nil
		}
		return IntValue(min(a.Int(), b.Int())), nil
	},
	"max": func(args []Value, pos Pos) (Value, error) {
		if len(args) != 2 {
			return Value{}, rtErr(pos, "max wants 2 args")
		}
		a, b := args[0], args[1]
		if a.Kind == KFloat || b.Kind == KFloat {
			return FloatValue(math.Max(a.Float(), b.Float())), nil
		}
		return IntValue(max(a.Int(), b.Int())), nil
	},
	"abs": func(args []Value, pos Pos) (Value, error) {
		if len(args) != 1 {
			return Value{}, rtErr(pos, "abs wants 1 arg")
		}
		v := args[0].Int()
		if v < 0 {
			v = -v
		}
		return IntValue(v), nil
	},
}
