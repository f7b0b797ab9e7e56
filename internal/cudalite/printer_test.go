package cudalite

import (
	"strings"
	"testing"
)

// reflectEqualTrees compares two programs by re-printing: Format is
// deterministic, so equal output means equivalent trees.
func treesEqual(a, b *Program) bool { return Format(a) == Format(b) }

// formatFunc renders a single function definition.
func formatFunc(f *FuncDecl) string {
	var pr printer
	pr.printFunc(f)
	return pr.sb.String()
}

// formatStmt renders one statement at zero indentation.
func formatStmt(s Stmt) string {
	var pr printer
	pr.printStmt(s)
	return pr.sb.String()
}

// formatExpr renders one expression.
func formatExpr(e Expr) string {
	var pr printer
	return pr.expr(e, 0)
}

func TestRoundTripVecAdd(t *testing.T) {
	prog, err := Parse(vaSrc)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(prog)
	prog2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, out)
	}
	if !treesEqual(prog, prog2) {
		t.Fatalf("round trip changed tree:\n%s\nvs\n%s", out, Format(prog2))
	}
}

// Round-trip every construct the language supports.
const kitchenSink = `
__device__ float helper(float x, int n) {
    float acc = 0.0;
    for (int i = 0; i < n; ++i) {
        acc += x * (float)i;
        if (acc > 100.0) {
            break;
        } else if (acc < -100.0) {
            continue;
        } else {
            acc = acc / 2.0;
        }
    }
    while (acc > 10.0) {
        acc -= 1.0;
    }
    return acc > 0.0 ? acc : -acc;
}

__global__ void k(volatile unsigned int* flag, float* data, int n) {
    __shared__ float tile[128];
    __shared__ int leader;
    int tid = threadIdx.x + blockIdx.x * blockDim.x;
    int mask = (tid & 3) | (tid ^ 1);
    int shifted = tid << 2 >> 1;
    bool done = false;
    if (!done && *flag == 1 || tid % 7 == 0) {
        return;
    }
    tile[threadIdx.x] = data[tid];
    __syncthreads();
    int old = atomicAdd(&leader, 1);
    data[tid] = helper(tile[threadIdx.x], n) + (float)old + (float)mask + (float)shifted;
    tid++;
    --tid;
}

void host(float* buf, unsigned int* flag, int n) {
    k<<<n / 128, 128>>>(flag, buf, n);
    k<<<n / 128, 128, 512>>>(flag, buf, n);
}
`

func TestRoundTripKitchenSink(t *testing.T) {
	prog, err := Parse(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	out1 := Format(prog)
	prog2, err := Parse(out1)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out1)
	}
	out2 := Format(prog2)
	if out1 != out2 {
		t.Fatalf("printing not a fixed point:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
}

func TestPrinterParenthesization(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int x = (1 + 2) * 3;", "(1 + 2) * 3"},
		{"int x = 1 + 2 * 3;", "1 + 2 * 3"},
		{"int x = -(1 + 2);", "-(1 + 2)"},
		{"int x = a - (b - c);", "a - (b - c)"},
		{"int x = (a = 3) + 1;", "(a = 3) + 1"},
	}
	for _, c := range cases {
		f, err := ParseKernel("void f(int a, int b, int c) { " + c.src + " }")
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		ds := f.Body.Stmts[0].(*DeclStmt)
		got := formatExpr(ds.Decls[0].Init)
		if got != c.want {
			t.Errorf("print(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestPrinterPreservesSemanticsUnderReparse(t *testing.T) {
	// An expression printed without explicit Paren nodes must re-parse to
	// the same evaluation result.
	src := "void f() { int r = (1 + 2) * (3 - 4) / 2 - -5 % 3; }"
	f, err := ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := formatFunc(f)
	f2, err := ParseKernel(printed)
	if err != nil {
		t.Fatal(err)
	}
	if formatFunc(f) != formatFunc(f2) {
		t.Fatalf("reparse mismatch:\n%s\nvs\n%s", formatFunc(f), formatFunc(f2))
	}
}

func TestFormatStmtLaunch(t *testing.T) {
	prog, err := Parse("void h() { k<<<10, 256>>>(1, 2.5); }")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(formatStmt(prog.Funcs[0].Body.Stmts[0]))
	if got != "k<<<10, 256>>>(1, 2.5);" {
		t.Fatalf("got %q", got)
	}
}

func TestFormatFloatAlwaysReparsesAsFloat(t *testing.T) {
	for _, v := range []float64{1, 0.5, 3e20, 1e-9, 42} {
		s := formatFloat(v)
		toks, err := Lex(s)
		if err != nil || len(toks) != 1 || toks[0].Kind != FLOATLIT {
			t.Errorf("formatFloat(%g) = %q does not lex as float literal", v, s)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	prog, err := Parse(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	clone := CloneProgram(prog)
	if Format(clone) != Format(prog) {
		t.Fatal("clone differs from original")
	}
	// Mutate the clone: original must be untouched.
	clone.Funcs[1].Name = "renamed"
	clone.Funcs[1].Body.Stmts = nil
	if prog.Funcs[1].Name == "renamed" || len(prog.Funcs[1].Body.Stmts) == 0 {
		t.Fatal("clone aliases original")
	}
}

func TestInspectFindsAllLaunches(t *testing.T) {
	prog, err := Parse(kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, fn := range prog.Funcs {
		Inspect(fn, func(node Node) bool {
			if _, ok := node.(*LaunchStmt); ok {
				n++
			}
			return true
		})
	}
	if n != 2 {
		t.Fatalf("found %d launches, want 2", n)
	}
}

func TestInspectSkipsChildrenOnFalse(t *testing.T) {
	prog, err := Parse("void f() { if (1) { int x = 2; } }")
	if err != nil {
		t.Fatal(err)
	}
	var sawDecl bool
	Inspect(prog.Funcs[0], func(n Node) bool {
		if _, ok := n.(*IfStmt); ok {
			return false
		}
		if _, ok := n.(*DeclStmt); ok {
			sawDecl = true
		}
		return true
	})
	if sawDecl {
		t.Fatal("Inspect descended into pruned subtree")
	}
}

// A rewrite hook sees each copied node after its children, what it returns
// takes the node's place, nil keeps the copy, and the input is untouched.
func TestRewriteExprReplacesWhatTheHookReturns(t *testing.T) {
	f, err := ParseKernel("void f(int a, int b) { a = (a + 1) * -(a + b); }")
	if err != nil {
		t.Fatal(err)
	}
	in := f.Body.Stmts[0].(*ExprStmt).X
	out := rewriter{onExpr: func(e Expr) Expr {
		if id, ok := e.(*Ident); ok && id.Name == "a" {
			return &Index{X: &Ident{Name: "v"}, Idx: &IntLit{Val: 0}}
		}
		return nil
	}}.expr(in)
	if got, want := formatExpr(out), "v[0] = (v[0] + 1) * -(v[0] + b)"; got != want {
		t.Errorf("rewritten = %q, want %q", got, want)
	}
	if got, want := formatExpr(in), "a = (a + 1) * -(a + b)"; got != want {
		t.Errorf("input changed to %q", got)
	}
}
