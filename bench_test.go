package flep

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation. Each iteration regenerates the artifact's full
// data (all pairs/triplets/sweeps); run with
//
//	go test -bench=. -benchmem
//
// and use cmd/flepbench to print the actual rows.

import (
	"sync"
	"testing"

	cl "flep/internal/cudalite"
	"flep/internal/experiments"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func suiteForBench(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() { benchSuite, benchErr = experiments.NewSuite() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func benchArtifact(b *testing.B, run func(*experiments.Suite) (*experiments.Table, error)) {
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkOfflinePhase measures the whole offline pipeline: scan,
// tune, train, and profile all eight kernels.
func BenchmarkOfflinePhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.NewSuite(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (solo times + amortizing factors).
func BenchmarkTable1(b *testing.B) { benchArtifact(b, (*experiments.Suite).Table1) }

// BenchmarkFigure1 regenerates Figure 1 (MPS slowdown of high-priority
// kernels, 28 pairs).
func BenchmarkFigure1(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure1) }

// BenchmarkFigure7 regenerates Figure 7 (duration prediction errors).
func BenchmarkFigure7(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure7) }

// BenchmarkFigure8 regenerates Figure 8 (HPF speedups, 28 pairs).
func BenchmarkFigure8(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure8) }

// BenchmarkFigure9 regenerates Figure 9 (speedup vs invocation delay).
func BenchmarkFigure9(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure9) }

// BenchmarkFigure10 regenerates Figure 10 (equal-priority ANTT, 28 pairs).
func BenchmarkFigure10(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure10) }

// BenchmarkFigure11 regenerates Figure 11 (STP degradation, 28 pairs).
func BenchmarkFigure11(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure11) }

// BenchmarkFigure12 regenerates Figure 12 (triplet ANTT + reordering).
func BenchmarkFigure12(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure12) }

// BenchmarkFigure13 regenerates Figure 13 (FFS GPU shares): the 28 pairs
// of the FFS study, with the share sampler.
func BenchmarkFigure13(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure13) }

// BenchmarkFigure14 regenerates Figure 14 (FFS throughput degradation)
// standalone: with no Figure 13 before it, each regeneration runs the 28
// pairs itself. In paper order it reads Figure 13's runs and costs almost
// nothing.
func BenchmarkFigure14(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure14) }

// BenchmarkFigure15 regenerates Figure 15 (spatial preemption overhead
// reduction, 56 co-runs × 3 systems).
func BenchmarkFigure15(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure15) }

// BenchmarkFigure16 regenerates Figure 16 (SM over-provisioning sweep).
func BenchmarkFigure16(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure16) }

// BenchmarkFigure17 regenerates Figure 17 (FLEP vs slicing overhead).
func BenchmarkFigure17(b *testing.B) { benchArtifact(b, (*experiments.Suite).Figure17) }

// BenchmarkAblationAmortize sweeps the amortizing factor (DESIGN.md §5).
func BenchmarkAblationAmortize(b *testing.B) {
	benchArtifact(b, (*experiments.Suite).AblationAmortize)
}

// BenchmarkAblationLeaderPoll compares leader vs all-warps flag polling.
func BenchmarkAblationLeaderPoll(b *testing.B) {
	benchArtifact(b, (*experiments.Suite).AblationLeaderPoll)
}

// BenchmarkAblationOverheadAware compares overhead-aware vs naive SRT.
func BenchmarkAblationOverheadAware(b *testing.B) {
	benchArtifact(b, (*experiments.Suite).AblationOverheadAware)
}

// BenchmarkAblationSpatialSize compares exact-fit vs over-provisioned
// spatial yields.
func BenchmarkAblationSpatialSize(b *testing.B) {
	benchArtifact(b, (*experiments.Suite).AblationSpatialSize)
}

// BenchmarkTransformSource measures the compilation engine on the largest
// benchmark kernel (CFD, 130 lines).
func BenchmarkTransformSource(b *testing.B) {
	cfd, err := BenchmarkByName("CFD")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TransformSource(cfd.Source, Spatial); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileProgram measures the whole-program offline pipeline on a
// two-kernel application.
func BenchmarkCompileProgram(b *testing.B) {
	src := `
__global__ void k1(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i] = a[i] * 2.0; }
}
__global__ void k2(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float v = a[i];
        for (int r = 0; r < 32; ++r) { v = v * 1.01 + 0.5; }
        a[i] = v;
    }
}
void host(float* a, int n) {
    k1<<<(n + 255) / 256, 256>>>(a, n);
    k2<<<(n + 255) / 256, 256>>>(a, n);
}
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileProgram(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunProgram measures an end-to-end host-program co-simulation
// (two processes, one preemption, functional execution of the small grid).
func BenchmarkRunProgram(b *testing.B) {
	src := `
__global__ void longk(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { a[i] = a[i] + 1.0; }
}
__global__ void shortk(float* c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { c[i] = c[i] * 0.5; }
}
void run_long(float* a, int n) { longk<<<100000, 256>>>(a, n); }
void run_short(float* c, int n) { shortk<<<(n + 255) / 256, 256>>>(c, n); }
`
	prog, err := CompileProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewFloatBuffer("a", 16)
		c := NewFloatBuffer("c", 512)
		_, err := RunProgram(prog, RunOptions{},
			HostProc{Func: "run_long", Priority: 1, Args: []Value{Ptr(a, 0), Int(25_000_000)}},
			HostProc{Func: "run_short", Priority: 2, Args: []Value{Ptr(c, 0), Int(512)}},
		)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterMM measures the SIMT interpreter on a 40x40 tiled
// matrix multiply (16x16 CTAs with shared-memory tiles and barriers).
func BenchmarkInterpreterMM(b *testing.B) {
	mm, err := BenchmarkByName("MM")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := mm.Parse()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		data, err := mm.MakeData(40, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		m := cl.NewMachine(prog)
		if err := m.Launch(mm.KernelName, cl.LaunchConfig{Grid: data.Grid, Block: data.Block, Args: data.Args}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNVLink re-tunes amortizing factors across interconnect
// generations (the paper's §7 projection).
func BenchmarkAblationNVLink(b *testing.B) {
	benchArtifact(b, (*experiments.Suite).AblationNVLink)
}

// BenchmarkExtFFSTriplet runs the three-kernel FFS co-runs the paper
// elides in §6.3.3.
func BenchmarkExtFFSTriplet(b *testing.B) {
	benchArtifact(b, (*experiments.Suite).ExtFFSTriplet)
}
