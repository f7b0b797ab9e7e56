package flep

import (
	"strings"
	"sync"
	"testing"
)

var (
	facadeOnce sync.Once
	facadeSys  *System
)

func facadeSystem(t *testing.T) *System {
	t.Helper()
	facadeOnce.Do(func() {
		s := NewSystem()
		if err := s.OfflineAll(); err != nil {
			t.Fatalf("offline: %v", err)
		}
		facadeSys = s
	})
	if facadeSys == nil {
		t.Fatal("offline failed earlier")
	}
	return facadeSys
}

func TestTransformSource(t *testing.T) {
	src := `
__global__ void saxpy(float* x, float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}

void host(float* x, float* y, float a, int n) {
    saxpy<<<(n + 255) / 256, 256>>>(x, y, a, n);
}
`
	out, err := TransformSource(src, Temporal)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"saxpy_flep", "flep_intercept", "flep_preempt", "while (1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("transformed source missing %q", want)
		}
	}
	if strings.Contains(out, "<<<") {
		t.Error("raw launch left in host code")
	}
}

func TestTransformKernelSource(t *testing.T) {
	src := `__global__ void k(int* a) { a[blockIdx.x] = 1; }`
	out, name, params, err := TransformKernelSource(src, "k", Spatial)
	if err != nil {
		t.Fatal(err)
	}
	if name != "k_flep" {
		t.Fatalf("preemptable name %q", name)
	}
	if len(params) != 6 {
		t.Fatalf("extra params %v", params)
	}
	if !strings.Contains(out, "__smid()") {
		t.Error("spatial form missing __smid")
	}
}

func TestTransformSourceBadInput(t *testing.T) {
	if _, err := TransformSource("not cuda at all {{{", Temporal); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestPublicEndToEnd(t *testing.T) {
	s := facadeSystem(t)
	spmv, err := BenchmarkByName("SPMV")
	if err != nil {
		t.Fatal(err)
	}
	nn, err := BenchmarkByName("NN")
	if err != nil {
		t.Fatal(err)
	}
	sc := PriorityPair(spmv, nn, 0)
	mps, err := s.RunMPS(sc)
	if err != nil {
		t.Fatal(err)
	}
	flep, err := s.RunFLEP(sc, Options{Policy: "hpf"})
	if err != nil {
		t.Fatal(err)
	}
	if flep.ResultFor("SPMV").Turnaround >= mps.ResultFor("SPMV").Turnaround {
		t.Fatal("FLEP did not improve the high-priority kernel")
	}
}

func TestBenchmarksExposed(t *testing.T) {
	if len(Benchmarks()) != 8 {
		t.Fatalf("benchmarks = %d", len(Benchmarks()))
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	par := DefaultParams()
	if par.Limits.NumSMs != 15 {
		t.Fatalf("default device has %d SMs, want 15 (K40)", par.Limits.NumSMs)
	}
}

func TestCompileAndRunProgram(t *testing.T) {
	prog, err := CompileProgram(`
__global__ void doubleit(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = a[i] * 2.0;
    }
}
void run(float* a, int n) {
    doubleit<<<(n + 255) / 256, 256>>>(a, n);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	buf := NewFloatBuffer("a", 300)
	for i := range buf.F {
		buf.F[i] = float64(i)
	}
	rep, err := RunProgram(prog, RunOptions{}, HostProc{
		Func: "run", Priority: 1,
		Args: []Value{Ptr(buf, 0), Int(300)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Invocations) != 1 || !rep.Invocations[0].Functional {
		t.Fatalf("invocations %+v", rep.Invocations)
	}
	for i := range buf.F {
		if buf.F[i] != 2*float64(i) {
			t.Fatalf("a[%d] = %g", i, buf.F[i])
		}
	}
}
