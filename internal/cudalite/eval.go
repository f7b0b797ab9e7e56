package cudalite

import "math"

// location is an assignable place: either a variable cell or a buffer slot.
type location struct {
	cell *cell
	buf  *Buffer
	idx  int
}

func (tc *threadCtx) loadLoc(l location, pos Pos) (Value, error) {
	if l.cell != nil {
		return l.cell.val, nil
	}
	if l.buf.Volatile && tc.m.OnVolatileRead != nil {
		tc.m.OnVolatileRead(l.buf, l.idx)
	}
	v, err := l.buf.Load(l.idx)
	if err != nil {
		return Value{}, rtErr(pos, "%v", err)
	}
	return v, nil
}

func (tc *threadCtx) storeLoc(l location, v Value, pos Pos) error {
	if l.cell != nil {
		l.cell.val = convert(v, l.cell.typ)
		return nil
	}
	if err := l.buf.Store(l.idx, v); err != nil {
		return rtErr(pos, "%v", err)
	}
	return nil
}

// evalLoc resolves an lvalue expression to a location.
func (tc *threadCtx) evalLoc(e Expr) (location, error) {
	switch x := e.(type) {
	case *Ident:
		// Shared variables shadow locals of the same name deliberately:
		// the CUDA source cannot declare both.
		if buf, ok := tc.shared[x.Name]; ok {
			return location{buf: buf, idx: 0}, nil
		}
		c := tc.lookup(x.Name)
		if c == nil {
			return location{}, rtErr(x.Pos, "undefined variable %q", x.Name)
		}
		if c.buf != nil {
			return location{}, rtErr(x.Pos, "array %q is not assignable", x.Name)
		}
		return location{cell: c}, nil
	case *Index:
		base, err := tc.eval(x.X)
		if err != nil {
			return location{}, err
		}
		if base.Kind != KPtr || base.P.IsNil() {
			return location{}, rtErr(x.Pos, "indexing non-pointer value")
		}
		idx, err := tc.eval(x.Idx)
		if err != nil {
			return location{}, err
		}
		return location{buf: base.P.Buf, idx: base.P.Off + int(idx.Int())}, nil
	case *Unary:
		if x.Op != OpDeref {
			break
		}
		p, err := tc.eval(x.X)
		if err != nil {
			return location{}, err
		}
		if p.Kind != KPtr || p.P.IsNil() {
			return location{}, rtErr(x.Pos, "dereference of non-pointer or NULL")
		}
		return location{buf: p.P.Buf, idx: p.P.Off}, nil
	case *Paren:
		return tc.evalLoc(x.X)
	}
	return location{}, rtErr(e.NodePos(), "expression is not assignable")
}

// eval evaluates an expression to a value.
func (tc *threadCtx) eval(e Expr) (Value, error) {
	if err := tc.step(e.NodePos()); err != nil {
		return Value{}, err
	}
	switch x := e.(type) {
	case *IntLit:
		return IntValue(x.Val), nil
	case *FloatLit:
		return FloatValue(x.Val), nil
	case *BoolLit:
		return BoolValue(x.Val), nil
	case *NullLit:
		return NullValue(), nil
	case *StrLit:
		if tc.sync != nil {
			return Value{}, rtErr(x.Pos, "string literals are not valid in device code")
		}
		return StrValue(x.Val), nil
	case *Ident:
		return tc.evalIdent(x)
	case *Member:
		return tc.evalMember(x)
	case *Paren:
		return tc.eval(x.X)
	case *Cast:
		v, err := tc.eval(x.X)
		if err != nil {
			return Value{}, err
		}
		return convert(v, x.Type), nil
	case *Index, *Unary:
		if u, ok := x.(*Unary); ok && u.Op != OpDeref {
			return tc.evalUnary(u)
		}
		loc, err := tc.evalLoc(x.(Expr))
		if err != nil {
			return Value{}, err
		}
		return tc.loadLoc(loc, x.NodePos())
	case *Postfix:
		loc, err := tc.evalLoc(x.X)
		if err != nil {
			return Value{}, err
		}
		old, err := tc.loadLoc(loc, x.Pos)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if x.Op == OpPostDec {
			delta = -1
		}
		if err := tc.storeLoc(loc, addValue(old, delta), x.Pos); err != nil {
			return Value{}, err
		}
		return old, nil
	case *Binary:
		return tc.evalBinary(x)
	case *Assign:
		return tc.evalAssign(x)
	case *Cond:
		c, err := tc.eval(x.C)
		if err != nil {
			return Value{}, err
		}
		if c.Bool() {
			return tc.eval(x.T)
		}
		return tc.eval(x.E)
	case *Call:
		return tc.evalCall(x)
	}
	return Value{}, rtErr(e.NodePos(), "unknown expression %T", e)
}

func (tc *threadCtx) evalIdent(x *Ident) (Value, error) {
	if buf, ok := tc.shared[x.Name]; ok {
		// Shared arrays decay to pointers; shared scalars load element 0.
		if sharedIsScalar(buf) {
			if buf.Volatile && tc.m.OnVolatileRead != nil {
				tc.m.OnVolatileRead(buf, 0)
			}
			return buf.Load(0)
		}
		return PtrValue(buf, 0), nil
	}
	if c := tc.lookup(x.Name); c != nil {
		if c.buf != nil {
			return PtrValue(c.buf, 0), nil // array decay
		}
		return c.val, nil
	}
	return Value{}, rtErr(x.Pos, "undefined identifier %q", x.Name)
}

// sharedIsScalar treats length-1 shared buffers as scalars. Kernel authors
// that need a one-element shared array can index it explicitly; the FLEP
// transform only emits shared scalars.
func sharedIsScalar(b *Buffer) bool { return b.Len() == 1 }

func (tc *threadCtx) evalMember(x *Member) (Value, error) {
	id, ok := x.X.(*Ident)
	if !ok {
		return Value{}, rtErr(x.Pos, "member access on non-builtin")
	}
	var d Dim3
	switch id.Name {
	case "threadIdx":
		d = tc.tid
	case "blockIdx":
		d = tc.bid
	case "blockDim":
		d = tc.bdim
	case "gridDim":
		d = tc.gdim
	default:
		return Value{}, rtErr(x.Pos, "unknown builtin %q", id.Name)
	}
	switch x.Name {
	case "x":
		return IntValue(int64(d.X)), nil
	case "y":
		return IntValue(int64(d.Y)), nil
	case "z":
		return IntValue(int64(d.Z)), nil
	}
	return Value{}, rtErr(x.Pos, "unknown member .%s", x.Name)
}

func (tc *threadCtx) evalUnary(x *Unary) (Value, error) {
	switch x.Op {
	case OpAddr:
		loc, err := tc.evalLoc(x.X)
		if err != nil {
			return Value{}, err
		}
		if loc.buf == nil {
			return Value{}, rtErr(x.Pos, "cannot take address of register variable")
		}
		return PtrValue(loc.buf, loc.idx), nil
	case OpPreInc, OpPreDec:
		loc, err := tc.evalLoc(x.X)
		if err != nil {
			return Value{}, err
		}
		old, err := tc.loadLoc(loc, x.Pos)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if x.Op == OpPreDec {
			delta = -1
		}
		nv := addValue(old, delta)
		if err := tc.storeLoc(loc, nv, x.Pos); err != nil {
			return Value{}, err
		}
		return nv, nil
	}
	v, err := tc.eval(x.X)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case OpNeg:
		if v.Kind == KFloat {
			return FloatValue(-v.F), nil
		}
		return IntValue(-v.Int()), nil
	case OpNot:
		return BoolValue(!v.Bool()), nil
	case OpBitNot:
		return IntValue(^v.Int()), nil
	}
	return Value{}, rtErr(x.Pos, "unknown unary operator")
}

// addValue adds an integer delta preserving the value's kind (pointer
// arithmetic moves the offset).
func addValue(v Value, delta int64) Value {
	switch v.Kind {
	case KFloat:
		return FloatValue(v.F + float64(delta))
	case KPtr:
		v.P.Off += int(delta)
		return v
	default:
		return IntValue(v.I + delta)
	}
}

func (tc *threadCtx) evalBinary(x *Binary) (Value, error) {
	// Short-circuit logic first.
	if x.Op == OpAnd || x.Op == OpOr {
		l, err := tc.eval(x.L)
		if err != nil {
			return Value{}, err
		}
		if x.Op == OpAnd && !l.Bool() {
			return BoolValue(false), nil
		}
		if x.Op == OpOr && l.Bool() {
			return BoolValue(true), nil
		}
		r, err := tc.eval(x.R)
		if err != nil {
			return Value{}, err
		}
		return BoolValue(r.Bool()), nil
	}
	l, err := tc.eval(x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := tc.eval(x.R)
	if err != nil {
		return Value{}, err
	}
	return binop(x.Op, l, r, x.Pos)
}

func binop(op Op, l, r Value, pos Pos) (Value, error) {
	// Pointer arithmetic.
	if l.Kind == KPtr || r.Kind == KPtr {
		switch op {
		case OpAdd:
			if l.Kind == KPtr && r.Kind != KPtr {
				return addValue(l, r.Int()), nil
			}
			if r.Kind == KPtr && l.Kind != KPtr {
				return addValue(r, l.Int()), nil
			}
		case OpSub:
			if l.Kind == KPtr && r.Kind != KPtr {
				return addValue(l, -r.Int()), nil
			}
			if l.Kind == KPtr && r.Kind == KPtr && l.P.Buf == r.P.Buf {
				return IntValue(int64(l.P.Off - r.P.Off)), nil
			}
		case OpEq:
			return BoolValue(l.P == r.P), nil
		case OpNe:
			return BoolValue(l.P != r.P), nil
		}
		return Value{}, rtErr(pos, "invalid pointer operation %s", op)
	}
	float := l.Kind == KFloat || r.Kind == KFloat
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem:
		if float {
			a, b := l.Float(), r.Float()
			switch op {
			case OpAdd:
				return FloatValue(a + b), nil
			case OpSub:
				return FloatValue(a - b), nil
			case OpMul:
				return FloatValue(a * b), nil
			case OpDiv:
				return FloatValue(a / b), nil
			case OpRem:
				return FloatValue(math.Mod(a, b)), nil
			}
		}
		a, b := l.Int(), r.Int()
		switch op {
		case OpAdd:
			return IntValue(a + b), nil
		case OpSub:
			return IntValue(a - b), nil
		case OpMul:
			return IntValue(a * b), nil
		case OpDiv:
			if b == 0 {
				return Value{}, rtErr(pos, "integer division by zero")
			}
			return IntValue(a / b), nil
		case OpRem:
			if b == 0 {
				return Value{}, rtErr(pos, "integer modulo by zero")
			}
			return IntValue(a % b), nil
		}
	case OpLt, OpGt, OpLe, OpGe, OpEq, OpNe:
		var res bool
		if float {
			a, b := l.Float(), r.Float()
			switch op {
			case OpLt:
				res = a < b
			case OpGt:
				res = a > b
			case OpLe:
				res = a <= b
			case OpGe:
				res = a >= b
			case OpEq:
				res = a == b
			case OpNe:
				res = a != b
			}
		} else {
			a, b := l.Int(), r.Int()
			switch op {
			case OpLt:
				res = a < b
			case OpGt:
				res = a > b
			case OpLe:
				res = a <= b
			case OpGe:
				res = a >= b
			case OpEq:
				res = a == b
			case OpNe:
				res = a != b
			}
		}
		return BoolValue(res), nil
	case OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr:
		a, b := l.Int(), r.Int()
		switch op {
		case OpBitAnd:
			return IntValue(a & b), nil
		case OpBitOr:
			return IntValue(a | b), nil
		case OpBitXor:
			return IntValue(a ^ b), nil
		case OpShl:
			return IntValue(a << uint(b&63)), nil
		case OpShr:
			return IntValue(a >> uint(b&63)), nil
		}
	}
	return Value{}, rtErr(pos, "unsupported binary operator %s", op)
}

func (tc *threadCtx) evalAssign(x *Assign) (Value, error) {
	loc, err := tc.evalLoc(x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := tc.eval(x.R)
	if err != nil {
		return Value{}, err
	}
	if x.Op != OpAssign {
		old, err := tc.loadLoc(loc, x.Pos)
		if err != nil {
			return Value{}, err
		}
		var op Op
		switch x.Op {
		case OpAddAssign:
			op = OpAdd
		case OpSubAssign:
			op = OpSub
		case OpMulAssign:
			op = OpMul
		case OpDivAssign:
			op = OpDiv
		}
		r, err = binop(op, old, r, x.Pos)
		if err != nil {
			return Value{}, err
		}
	}
	if err := tc.storeLoc(loc, r, x.Pos); err != nil {
		return Value{}, err
	}
	return r, nil
}
