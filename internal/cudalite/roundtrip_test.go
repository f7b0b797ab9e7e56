package cudalite

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// astGen builds random, well-formed MiniCUDA programs to property-test the
// printer/parser round trip: Format(p) must re-parse to a tree that groups
// as p does, and printing the re-parsed tree must be a fixed point. Operators
// nest bare, with no Paren between them, the way a rewrite hook builds them.
type astGen struct {
	rng   *rand.Rand
	names []string // in-scope variable names
	depth int
}

func (g *astGen) pick(ss []string) string { return ss[g.rng.Intn(len(ss))] }

func (g *astGen) expr() Expr {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 4 {
		return g.leaf()
	}
	switch g.rng.Intn(8) {
	case 0, 1:
		return g.leaf()
	case 2:
		ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpLt, OpGt, OpLe, OpGe, OpEq, OpNe, OpAnd, OpOr, OpBitAnd, OpBitOr, OpBitXor, OpShl, OpShr, OpRem}
		return &Binary{Op: ops[g.rng.Intn(len(ops))], L: g.expr(), R: g.expr()}
	case 3:
		ops := []Op{OpNeg, OpNot, OpBitNot}
		return &Unary{Op: ops[g.rng.Intn(len(ops))], X: g.expr()}
	case 4:
		return &Cond{C: g.expr(), T: g.expr(), E: g.expr()}
	case 5:
		return &Paren{X: g.expr()}
	case 6:
		return &Cast{Type: Type{Base: TInt}, X: g.expr()}
	default:
		return &Call{Fun: "min", Args: []Expr{g.expr(), g.expr()}}
	}
}

func (g *astGen) leaf() Expr {
	switch g.rng.Intn(4) {
	case 0:
		return &IntLit{Val: int64(g.rng.Intn(1000))}
	case 1:
		return &FloatLit{Val: float64(g.rng.Intn(100)) / 4}
	case 2:
		return &BoolLit{Val: g.rng.Intn(2) == 0}
	default:
		return &Ident{Name: g.pick(g.names)}
	}
}

func (g *astGen) stmt() Stmt {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 3 {
		return &ExprStmt{X: &Assign{Op: OpAssign, L: &Ident{Name: g.pick(g.names)}, R: g.expr()}}
	}
	switch g.rng.Intn(6) {
	case 0:
		return &ExprStmt{X: &Assign{Op: OpAssign, L: &Ident{Name: g.pick(g.names)}, R: g.expr()}}
	case 1:
		st := &IfStmt{Cond: g.expr(), Then: g.block()}
		if g.rng.Intn(2) == 0 {
			st.Else = g.block()
		}
		return st
	case 2:
		return &ForStmt{
			Init: &DeclStmt{Type: Type{Base: TInt}, Decls: []*Declarator{{Name: "it", Init: &IntLit{Val: 0}}}},
			Cond: &Binary{Op: OpLt, L: &Ident{Name: "it"}, R: &IntLit{Val: 4}},
			Post: &Unary{Op: OpPreInc, X: &Ident{Name: "it"}},
			Body: g.block(),
		}
	case 3:
		return &WhileStmt{Cond: g.expr(), Body: &Block{Stmts: []Stmt{&BreakStmt{}}}}
	case 4:
		return &ExprStmt{X: &Assign{Op: OpAddAssign, L: &Ident{Name: g.pick(g.names)}, R: g.expr()}}
	default:
		return g.block()
	}
}

func (g *astGen) block() *Block {
	n := g.rng.Intn(3) + 1
	b := &Block{}
	for i := 0; i < n; i++ {
		b.Stmts = append(b.Stmts, g.stmt())
	}
	return b
}

func (g *astGen) program() *Program {
	fn := &FuncDecl{
		Qual: QualGlobal,
		Ret:  Type{Base: TVoid},
		Name: "k",
		Params: []*Param{
			{Type: Type{Base: TInt}, Name: "a"},
			{Type: Type{Base: TInt}, Name: "b"},
			{Type: Type{Base: TFloat}, Name: "f"},
		},
	}
	g.names = []string{"a", "b", "f"}
	fn.Body = g.block()
	return &Program{Funcs: []*FuncDecl{fn}}
}

// Property: for random programs, Format output re-parses to the same
// grouping and printing is a fixed point (Parse∘Format = identity up to
// formatting and parentheses).
func TestPropertyFormatParseFixedPoint(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		g := &astGen{rng: rand.New(rand.NewSource(seed))}
		prog := g.program()
		out1 := Format(prog)
		reparsed, err := Parse(out1)
		if err != nil {
			t.Fatalf("seed %d: formatted program does not parse: %v\n%s", seed, err, out1)
		}
		out2 := Format(reparsed)
		if out1 != out2 {
			t.Fatalf("seed %d: printing not a fixed point:\n--- first\n%s\n--- second\n%s", seed, out1, out2)
		}
		if want, got := shape(prog.Funcs[0]), shape(reparsed.Funcs[0]); got != want {
			t.Fatalf("seed %d: the printed text groups differently from the tree it was printed from:\n%s\n--- tree\n%s\n--- re-parsed\n%s", seed, out1, want, got)
		}
	}
}

// Property: the transformed form of a random kernel also round-trips, and
// cloning it is faithful.
func TestPropertyCloneFaithful(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		g := &astGen{rng: rand.New(rand.NewSource(seed + 1000))}
		prog := g.program()
		clone := CloneProgram(prog)
		if Format(prog) != Format(clone) {
			t.Fatalf("seed %d: clone differs", seed)
		}
	}
}

// shape renders the subtree at n as its pre-order node sequence with Paren
// and Block nodes dropped and positions ignored: two trees have the same
// shape exactly when their expressions group the same way, whatever
// parentheses the source carried and whatever braces the printer put around
// a one-statement body.
func shape(n Node) string {
	var sb strings.Builder
	Inspect(n, func(n Node) bool {
		switch x := n.(type) {
		case *Paren, *Block:
			return true
		case *FuncDecl:
			fmt.Fprintf(&sb, "func %s; ", x.Name)
		case *Ident:
			sb.WriteString(x.Name + " ")
		case *IntLit:
			fmt.Fprintf(&sb, "%d ", x.Val)
		case *FloatLit:
			sb.WriteString(formatFloat(x.Val) + " ")
		case *BoolLit:
			fmt.Fprintf(&sb, "%t ", x.Val)
		case *StrLit:
			fmt.Fprintf(&sb, "%q ", x.Val)
		case *Unary:
			fmt.Fprintf(&sb, "pre%s ", x.Op)
		case *Postfix:
			fmt.Fprintf(&sb, "post%s ", x.Op)
		case *Binary:
			fmt.Fprintf(&sb, "bin%s ", x.Op)
		case *Assign:
			fmt.Fprintf(&sb, "set%s ", x.Op)
		case *Call:
			fmt.Fprintf(&sb, "%s/%d ", x.Fun, len(x.Args))
		case *Member:
			fmt.Fprintf(&sb, ".%s ", x.Name)
		case *Cast:
			fmt.Fprintf(&sb, "(%s) ", x.Type)
		case *DeclStmt:
			fmt.Fprintf(&sb, "decl %s/%d; ", x.Type, len(x.Decls))
		case *LaunchStmt:
			fmt.Fprintf(&sb, "launch %s/%d; ", x.Kernel, len(x.Args))
		default:
			fmt.Fprintf(&sb, "%T ", n)
		}
		return true
	})
	return strings.TrimSpace(sb.String())
}

// knownMisprints lists the operator nestings, by shape, whose printed form
// re-parses to a different grouping or not at all. It is empty: a nesting
// added here is a printer defect on record, not an exemption.
var knownMisprints = map[string]bool{}

// Every nesting of one operator directly inside another — built as node
// literals, with no Paren nodes, the way a rewrite hook builds them — must
// print as text that parses back to the same grouping.
func TestEveryOperatorRoundTrips(t *testing.T) {
	a, b, c := &Ident{Name: "a"}, &Ident{Name: "b"}, &Ident{Name: "c"}
	var cases []Expr
	for in := OpAdd; in <= OpShr; in++ {
		inner := &Binary{Op: in, L: a, R: b}
		for out := OpAdd; out <= OpShr; out++ {
			cases = append(cases,
				&Binary{Op: out, L: inner, R: c},
				&Binary{Op: out, L: c, R: inner})
		}
		for pre := OpNeg; pre <= OpPreDec; pre++ {
			cases = append(cases, &Unary{Op: pre, X: inner})
		}
		cases = append(cases, &Cast{Type: Type{Base: TFloat}, X: inner})
	}
	for in := OpNeg; in <= OpPreDec; in++ {
		inner := &Unary{Op: in, X: a}
		for pre := OpNeg; pre <= OpPreDec; pre++ {
			cases = append(cases, &Unary{Op: pre, X: inner})
		}
		for out := OpAdd; out <= OpShr; out++ {
			cases = append(cases,
				&Binary{Op: out, L: inner, R: c},
				&Binary{Op: out, L: c, R: inner})
		}
	}
	seen := map[string]bool{}
	for _, e := range cases {
		want := shape(e)
		seen[want] = true
		if knownMisprints[want] {
			continue
		}
		text := formatExpr(e)
		f, err := ParseKernel("void f(int a, int b, int c) { " + text + "; }")
		if err != nil {
			t.Errorf("%s prints as %q, which does not parse: %v", want, text, err)
			continue
		}
		if got := shape(f.Body.Stmts[0].(*ExprStmt).X); got != want {
			t.Errorf("%s prints as %q, which parses as %s", want, text, got)
		}
	}
	for s := range knownMisprints {
		if !seen[s] {
			t.Errorf("knownMisprints names %q, which is not a case", s)
		}
	}
}
