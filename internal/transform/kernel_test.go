package transform

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	cl "flep/internal/cudalite"
)

const vaSrc = `
__global__ void vecadd(float* a, float* b, float* c, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}

void host(float* a, float* b, float* c, int n) {
    vecadd<<<(n + 255) / 256, 256>>>(a, b, c, n);
}
`

func mustParse(t *testing.T, src string) *cl.Program {
	t.Helper()
	p, err := cl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTransformProducesExpectedFunctions(t *testing.T) {
	prog := mustParse(t, vaSrc)
	out, info, err := TransformKernel(prog, "vecadd", ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kernel("vecadd") == nil {
		t.Error("original kernel dropped")
	}
	if out.Func(info.TaskFunc) == nil || out.Func(info.TaskFunc).Qual != cl.QualDevice {
		t.Errorf("task function %s missing or not __device__", info.TaskFunc)
	}
	wrapper := out.Kernel(info.Preemptable)
	if wrapper == nil {
		t.Fatalf("preemptable kernel %s missing", info.Preemptable)
	}
	// Appended parameters in documented order.
	got := make([]string, 0, 6)
	for _, p := range wrapper.Params[4:] {
		got = append(got, p.Name)
	}
	want := []string{ParamPreempt, ParamNextTask, ParamNumTasks, ParamGridX, ParamGridY, ParamL}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("extra params = %v, want %v", got, want)
	}
	// The flag parameter must be volatile (pinned-memory semantics).
	if !wrapper.Params[4].Type.Volatile || wrapper.Params[4].Type.Base != cl.TUInt || !wrapper.Params[4].Type.IsPointer() {
		t.Errorf("flag param type = %v, want volatile unsigned int*", wrapper.Params[4].Type)
	}
	// Output must re-parse (valid MiniCUDA).
	if _, err := cl.Parse(cl.Format(out)); err != nil {
		t.Fatalf("transformed program does not re-parse: %v\n%s", err, cl.Format(out))
	}
}

func TestTransformNaiveHasNoL(t *testing.T) {
	prog := mustParse(t, vaSrc)
	_, info, err := TransformKernel(prog, "vecadd", ModeTemporalNaive)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range info.ExtraParams {
		if p == ParamL {
			t.Fatal("naive mode must not take an amortizing factor")
		}
	}
}

// formatFunc renders one function as MiniCUDA source.
func formatFunc(f *cl.FuncDecl) string { return cl.Format(&cl.Program{Funcs: []*cl.FuncDecl{f}}) }

func TestTransformRewritesBlockIdx(t *testing.T) {
	prog := mustParse(t, vaSrc)
	out, info, err := TransformKernel(prog, "vecadd", ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	task := formatFunc(out.Func(info.TaskFunc))
	if strings.Contains(task, "blockIdx") {
		t.Fatalf("task func still references blockIdx:\n%s", task)
	}
	if !strings.Contains(task, "flep_bx") {
		t.Fatalf("task func does not use flep_bx:\n%s", task)
	}
}

func TestTransformSpatialUsesSMID(t *testing.T) {
	prog := mustParse(t, vaSrc)
	out, info, err := TransformKernel(prog, "vecadd", ModeSpatial)
	if err != nil {
		t.Fatal(err)
	}
	src := formatFunc(out.Kernel(info.Preemptable))
	if !strings.Contains(src, "__smid()") {
		t.Fatalf("spatial wrapper lacks __smid():\n%s", src)
	}
}

func TestTransformTemporalPollsFlag(t *testing.T) {
	prog := mustParse(t, vaSrc)
	out, info, err := TransformKernel(prog, "vecadd", ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	src := formatFunc(out.Kernel(info.Preemptable))
	if !strings.Contains(src, "*"+ParamPreempt) {
		t.Fatalf("wrapper does not poll the flag:\n%s", src)
	}
	if strings.Contains(src, "__smid") {
		t.Fatal("temporal wrapper must not use __smid")
	}
}

func TestTransformRejectsReservedIdents(t *testing.T) {
	prog := mustParse(t, `__global__ void k(int* flep_x) { flep_x[0] = 1; }`)
	if _, _, err := TransformKernel(prog, "k", ModeTemporal); err == nil {
		t.Fatal("expected reserved-identifier error")
	}
}

func TestTransformRejects3D(t *testing.T) {
	prog := mustParse(t, `__global__ void k(int* a) { a[blockIdx.z] = 1; }`)
	if _, _, err := TransformKernel(prog, "k", ModeTemporal); err == nil {
		t.Fatal("expected 3D rejection")
	}
}

func TestTransformUnknownKernel(t *testing.T) {
	prog := mustParse(t, vaSrc)
	if _, _, err := TransformKernel(prog, "nope", ModeTemporal); err == nil {
		t.Fatal("expected unknown kernel error")
	}
}

func TestTransformTwiceFails(t *testing.T) {
	prog := mustParse(t, vaSrc)
	out, _, err := TransformKernel(prog, "vecadd", ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TransformKernel(out, "vecadd", ModeTemporal); err == nil {
		t.Fatal("expected already-transformed error")
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	prog := mustParse(t, vaSrc)
	before := cl.Format(prog)
	if _, _, err := TransformKernel(prog, "vecadd", ModeSpatial); err != nil {
		t.Fatal(err)
	}
	if cl.Format(prog) != before {
		t.Fatal("input program was mutated")
	}
}

func TestTransformHostRewritesLaunch(t *testing.T) {
	prog := mustParse(t, vaSrc)
	out, infos, err := TransformProgram(prog, ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("infos = %v", infos)
	}
	src := cl.Format(out)
	if strings.Contains(src, "<<<") {
		t.Fatalf("raw launch still present:\n%s", src)
	}
	if !strings.Contains(src, InterceptFunc+"(\"vecadd\"") {
		t.Fatalf("intercept call missing:\n%s", src)
	}
}

func TestTransformHostNestedLaunch(t *testing.T) {
	prog := mustParse(t, `
__global__ void k(int* a) { a[blockIdx.x] = 1; }
void host(int* a, int n) {
    for (int i = 0; i < n; ++i) {
        if (i > 2) {
            k<<<n, 32>>>(a);
        }
    }
}
`)
	out, _, err := TransformProgram(prog, ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cl.Format(out), "<<<") {
		t.Fatal("nested launch not rewritten")
	}
}

// ---- semantic equivalence via the interpreter ----

// runOriginal executes the original kernel; runTransformed executes the
// persistent-thread form with the given flag value and active CTA count.
func runTransformed(t *testing.T, prog *cl.Program, info *KernelInfo, origArgs []cl.Value, grid cl.Dim3, block cl.Dim3, activeCTAs, L int) (*cl.Buffer, *cl.Buffer) {
	t.Helper()
	m := cl.NewMachine(prog)
	flag := cl.NewIntBuffer("flep_preempt", 1)
	flag.Volatile = true
	counter := cl.NewIntBuffer("flep_next_task", 1)
	numTasks := grid.Count()
	args := append(append([]cl.Value{}, origArgs...),
		cl.PtrValue(flag, 0),
		cl.PtrValue(counter, 0),
		cl.IntValue(int64(numTasks)),
		cl.IntValue(int64(grid.Norm().X)),
		cl.IntValue(int64(grid.Norm().Y)),
	)
	if info.Mode != ModeTemporalNaive {
		args = append(args, cl.IntValue(int64(L)))
	}
	err := m.Launch(info.Preemptable, cl.LaunchConfig{
		Grid:  cl.D1(activeCTAs),
		Block: block,
		Args:  args,
	})
	if err != nil {
		t.Fatalf("transformed launch: %v", err)
	}
	return flag, counter
}

func TestTransformedVecAddEquivalent(t *testing.T) {
	for _, mode := range []Mode{ModeTemporalNaive, ModeTemporal, ModeSpatial} {
		prog := mustParse(t, vaSrc)
		out, info, err := TransformKernel(prog, "vecadd", mode)
		if err != nil {
			t.Fatal(err)
		}
		n := 1000
		mkArgs := func() ([]cl.Value, *cl.Buffer) {
			a := cl.NewFloatBuffer("a", n)
			b := cl.NewFloatBuffer("b", n)
			c := cl.NewFloatBuffer("c", n)
			for i := 0; i < n; i++ {
				a.F[i] = float64(i)
				b.F[i] = float64(2 * i)
			}
			return []cl.Value{cl.PtrValue(a, 0), cl.PtrValue(b, 0), cl.PtrValue(c, 0), cl.IntValue(int64(n))}, c
		}

		// Reference: original kernel.
		refArgs, refC := mkArgs()
		m := cl.NewMachine(out)
		grid := cl.D1((n + 255) / 256)
		if err := m.Launch("vecadd", cl.LaunchConfig{Grid: grid, Block: cl.D1(256), Args: refArgs}); err != nil {
			t.Fatal(err)
		}

		// Transformed with 3 persistent CTAs (fewer than tasks) and L=2.
		trArgs, trC := mkArgs()
		runTransformed(t, out, info, trArgs, grid, cl.D1(256), 3, 2)

		for i := 0; i < n; i++ {
			if refC.F[i] != trC.F[i] {
				t.Fatalf("mode %v: c[%d] = %g, want %g", mode, i, trC.F[i], refC.F[i])
			}
		}
	}
}

const tiledMMSrc = `
__global__ void mm(float* a, float* b, float* c, int n) {
    __shared__ float ta[64];
    __shared__ float tb[64];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int row = blockIdx.y * 8 + ty;
    int col = blockIdx.x * 8 + tx;
    float acc = 0.0;
    for (int t = 0; t < n / 8; ++t) {
        ta[ty * 8 + tx] = a[row * n + t * 8 + tx];
        tb[ty * 8 + tx] = b[(t * 8 + ty) * n + col];
        __syncthreads();
        for (int k = 0; k < 8; ++k) {
            acc += ta[ty * 8 + k] * tb[k * 8 + tx];
        }
        __syncthreads();
    }
    c[row * n + col] = acc;
}
`

// The 2D tiled matrix multiply exercises blockIdx.y linearization and
// __shared__ extraction into the task function.
func TestTransformedTiledMMEquivalent(t *testing.T) {
	prog := mustParse(t, tiledMMSrc)
	out, info, err := TransformKernel(prog, "mm", ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	n := 16
	mk := func() ([]cl.Value, *cl.Buffer) {
		a := cl.NewFloatBuffer("a", n*n)
		b := cl.NewFloatBuffer("b", n*n)
		c := cl.NewFloatBuffer("c", n*n)
		rng := rand.New(rand.NewSource(3))
		for i := range a.F {
			a.F[i] = rng.Float64()
			b.F[i] = rng.Float64()
		}
		return []cl.Value{cl.PtrValue(a, 0), cl.PtrValue(b, 0), cl.PtrValue(c, 0), cl.IntValue(int64(n))}, c
	}
	refArgs, refC := mk()
	m := cl.NewMachine(out)
	grid := cl.D2(n/8, n/8)
	if err := m.Launch("mm", cl.LaunchConfig{Grid: grid, Block: cl.D2(8, 8), Args: refArgs}); err != nil {
		t.Fatal(err)
	}
	trArgs, trC := mk()
	runTransformed(t, out, info, trArgs, grid, cl.D2(8, 8), 2, 1)
	for i := range refC.F {
		if math.Abs(refC.F[i]-trC.F[i]) > 1e-12 {
			t.Fatalf("c[%d] = %g, want %g", i, trC.F[i], refC.F[i])
		}
	}
}

// Preempting mid-run and resuming must execute every task exactly once.
const markSrc = `
__global__ void mark(int* hits, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(&hits[i], 1);
    }
}
`

func TestTransformedPreemptResumeExactlyOnce(t *testing.T) {
	out, info, err := TransformKernel(mustParse(t, markSrc), "mark", ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	if err := preemptResumeExactlyOnce(out, info); err != nil {
		t.Fatal(err)
	}
}

// preemptResumeExactlyOnce runs markSrc's persistent kernel, preempts it
// partway through, resumes it, and reports the first task element that did
// not execute exactly once.
func preemptResumeExactlyOnce(out *cl.Program, info *KernelInfo) error {
	n := 64 * 32
	hits := cl.NewIntBuffer("hits", n)
	flag := cl.NewIntBuffer("flag", 1)
	flag.Volatile = true
	counter := cl.NewIntBuffer("counter", 1)
	grid := cl.D1(64)

	m := cl.NewMachine(out)
	polls := 0
	m.OnVolatileRead = func(b *cl.Buffer, idx int) {
		polls++
		if polls == 10 { // preempt partway through
			b.I[0] = 1
		}
	}
	args := []cl.Value{
		cl.PtrValue(hits, 0), cl.IntValue(int64(n)),
		cl.PtrValue(flag, 0), cl.PtrValue(counter, 0),
		cl.IntValue(int64(grid.Count())), cl.IntValue(int64(grid.X)), cl.IntValue(1),
		cl.IntValue(4), // L
	}
	launch := func() error {
		return m.Launch(info.Preemptable, cl.LaunchConfig{Grid: cl.D1(4), Block: cl.D1(32), Args: args})
	}
	if err := launch(); err != nil {
		return err
	}
	if counter.I[0] >= int64(grid.Count()) {
		return fmt.Errorf("kernel finished before preemption (counter=%d); test needs a mid-run yield", counter.I[0])
	}
	// Resume: clear the flag, relaunch; the device-resident counter keeps
	// its value so no task repeats.
	flag.I[0] = 0
	m.OnVolatileRead = nil
	if err := launch(); err != nil {
		return err
	}
	for i, h := range hits.I {
		if h != 1 {
			return fmt.Errorf("task element %d executed %d times, want exactly 1", i, h)
		}
	}
	return nil
}

// Each of Figure 4's three __syncthreads() is needed: with any one of them
// deleted, the preempt/resume run above misses or repeats a task.
func TestPreemptResumeDetectsEachMissingBarrier(t *testing.T) {
	out, info, err := TransformKernel(mustParse(t, markSrc), "mark", ModeTemporal)
	if err != nil {
		t.Fatal(err)
	}
	isBarrier := func(s cl.Stmt) bool {
		es, ok := s.(*cl.ExprStmt)
		if !ok {
			return false
		}
		c, ok := es.X.(*cl.Call)
		return ok && c.Fun == "__syncthreads"
	}
	kernel := out.Func(info.Preemptable)
	barriers := 0
	cl.Inspect(kernel, func(n cl.Node) bool {
		if s, ok := n.(cl.Stmt); ok && isBarrier(s) {
			barriers++
		}
		return true
	})
	if barriers != 3 {
		t.Fatalf("persistent kernel has %d __syncthreads, want Figure 4's 3", barriers)
	}
	for drop := 0; drop < barriers; drop++ {
		seen := -1
		body := cl.RewriteStmt(kernel.Body, nil, func(s cl.Stmt) cl.Stmt {
			if !isBarrier(s) {
				return nil
			}
			if seen++; seen != drop {
				return nil
			}
			return &cl.Block{Pos: s.NodePos()} // an empty statement in its place
		})
		mutant := cl.CloneProgram(out)
		mutant.Func(info.Preemptable).Body = body.(*cl.Block)
		if err := preemptResumeExactlyOnce(mutant, info); err == nil {
			t.Errorf("__syncthreads #%d deleted: the preempt/resume run still executes every task exactly once", drop+1)
		} else {
			t.Logf("__syncthreads #%d deleted: %v", drop+1, err)
		}
	}
}

// Spatial preemption: CTAs on SMs below the flag value stop; others finish
// all remaining tasks, so one launch still completes every task.
func TestTransformedSpatialPartialYield(t *testing.T) {
	prog := mustParse(t, `
__global__ void mark(int* hits, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(&hits[i], 1);
    }
}
`)
	out, info, err := TransformKernel(prog, "mark", ModeSpatial)
	if err != nil {
		t.Fatal(err)
	}
	n := 256
	hits := cl.NewIntBuffer("hits", n)
	flag := cl.NewIntBuffer("flag", 1)
	flag.Volatile = true
	flag.I[0] = 2 // SMs 0 and 1 must yield immediately
	counter := cl.NewIntBuffer("counter", 1)
	grid := cl.D1(8)
	m := cl.NewMachine(out)
	args := []cl.Value{
		cl.PtrValue(hits, 0), cl.IntValue(int64(n)),
		cl.PtrValue(flag, 0), cl.PtrValue(counter, 0),
		cl.IntValue(int64(grid.Count())), cl.IntValue(int64(grid.X)), cl.IntValue(1),
		cl.IntValue(1),
	}
	// 4 persistent CTAs on SMs 0..3: CTAs 0,1 yield; CTAs 2,3 do the work.
	err = m.Launch(info.Preemptable, cl.LaunchConfig{
		Grid: cl.D1(4), Block: cl.D1(32), Args: args,
		SMID: func(cta int) int { return cta },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits.I {
		if h != 1 {
			t.Fatalf("element %d hit %d times", i, h)
		}
	}
}

func TestAutotuneFindsSmallestL(t *testing.T) {
	// Synthetic overhead model: poll cost 1.6 per batch amortized over L
	// tasks of cost 10 → overhead = 1.6/(10L)+0.005.
	measure := func(L int) float64 { return 1.6/(10*float64(L)) + 0.005 }
	l, ov, ok := Autotune(measure, 0.04, DefaultMaxAmortize)
	if !ok {
		t.Fatal("tuner failed")
	}
	// Need 1.6/(10L) < 0.035 → L > 4.57 → L = 5.
	if l != 5 {
		t.Fatalf("L = %d (overhead %.4f), want 5", l, ov)
	}
	if measure(l-1) < 0.04 {
		t.Fatal("L-1 also satisfies: not minimal")
	}
}

func TestAutotuneL1Satisfies(t *testing.T) {
	l, _, ok := Autotune(func(int) float64 { return 0.01 }, 0.04, 100)
	if !ok || l != 1 {
		t.Fatalf("L = %d ok=%v, want 1 true", l, ok)
	}
}

func TestAutotuneImpossible(t *testing.T) {
	l, ov, ok := Autotune(func(L int) float64 { return 0.5 }, 0.04, 64)
	if ok {
		t.Fatal("tuner claims success on impossible constraint")
	}
	if l < 1 || ov != 0.5 {
		t.Fatalf("l=%d ov=%v", l, ov)
	}
}

func TestAutotuneMonotoneRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		pollCost := rng.Float64()*5 + 0.1
		taskCost := rng.Float64()*20 + 0.5
		base := rng.Float64() * 0.03
		measure := func(L int) float64 { return pollCost/(taskCost*float64(L)) + base }
		l, ov, ok := Autotune(measure, 0.04, DefaultMaxAmortize)
		if !ok {
			if base >= 0.04 {
				continue // genuinely impossible
			}
			if measure(DefaultMaxAmortize) < 0.04 {
				t.Fatalf("trial %d: tuner failed but maxL satisfies", trial)
			}
			continue
		}
		if ov >= 0.04 {
			t.Fatalf("trial %d: returned overhead %.4f ≥ threshold", trial, ov)
		}
		if l > 1 && measure(l-1) < 0.04 {
			t.Fatalf("trial %d: L=%d not minimal", trial, l)
		}
	}
}

func TestEstimateResourcesShared(t *testing.T) {
	prog := mustParse(t, tiledMMSrc)
	res, err := EstimateResources(prog, prog.Kernel("mm"))
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticSharedBytes != 2*64*4 {
		t.Fatalf("shared bytes = %d, want 512", res.StaticSharedBytes)
	}
	if res.RegsPerThread < 8 {
		t.Fatalf("regs = %d", res.RegsPerThread)
	}
}

func TestEstimateResourcesRejectsDynamicShared(t *testing.T) {
	prog := mustParse(t, `__global__ void k(int n) { __shared__ float s[n]; s[0] = 1.0; }`)
	if _, err := EstimateResources(prog, prog.Kernel("k")); err == nil {
		t.Fatal("expected error for runtime shared size")
	}
}

// TestEstimateResourcesRefusesNilKernel: prog.Kernel's nil for a name the
// program lacks is an error, not a nil dereference in Program.Reachable.
func TestEstimateResourcesRefusesNilKernel(t *testing.T) {
	prog := mustParse(t, `__global__ void other() {}`)
	if _, err := EstimateResources(prog, prog.Kernel("k")); err == nil {
		t.Fatal("expected error for a missing kernel")
	}
}

func TestEstimateResourcesFollowsCallees(t *testing.T) {
	prog := mustParse(t, `
__device__ void helper() { __shared__ float s[32]; s[0] = 1.0; }
__global__ void k() { helper(); }
`)
	res, err := EstimateResources(prog, prog.Kernel("k"))
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticSharedBytes != 32*4 {
		t.Fatalf("shared bytes = %d, want 128", res.StaticSharedBytes)
	}
}

func TestComputeOccupancyLimiters(t *testing.T) {
	d := K40()
	cases := []struct {
		name    string
		res     Resources
		threads int
		dyn     int
		want    int
		limiter string
	}{
		{"threads-bound", Resources{RegsPerThread: 16}, 256, 0, 8, "threads"},
		{"cta-bound", Resources{RegsPerThread: 8}, 64, 0, 16, "ctas"},
		{"regs-bound", Resources{RegsPerThread: 128}, 256, 0, 2, "regs"},
		{"shared-bound", Resources{RegsPerThread: 16, StaticSharedBytes: 24 * 1024}, 128, 0, 2, "shared"},
		{"dynamic-shared", Resources{RegsPerThread: 16}, 128, 48 * 1024, 1, "shared"},
	}
	for _, c := range cases {
		occ, err := ComputeOccupancy(d, c.res, c.threads, c.dyn)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if occ.CTAsPerSM != c.want || occ.Limiter != c.limiter {
			t.Errorf("%s: got %d CTAs/SM (%s), want %d (%s)", c.name, occ.CTAsPerSM, occ.Limiter, c.want, c.limiter)
		}
		if occ.ActiveCTAs != occ.CTAsPerSM*d.NumSMs {
			t.Errorf("%s: ActiveCTAs inconsistent", c.name)
		}
	}
}

func TestComputeOccupancyPaperExample(t *testing.T) {
	// "the Kepler GPU supports concurrent execution of 120 active CTAs of
	// size 256" — 8 CTAs/SM × 15 SMs.
	occ, err := ComputeOccupancy(K40(), Resources{RegsPerThread: 24}, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	if occ.ActiveCTAs != 120 {
		t.Fatalf("active CTAs = %d, want 120", occ.ActiveCTAs)
	}
}

func TestComputeOccupancyErrors(t *testing.T) {
	d := K40()
	if _, err := ComputeOccupancy(d, Resources{}, 0, 0); err == nil {
		t.Error("no error for zero CTA size")
	}
	if _, err := ComputeOccupancy(d, Resources{}, 2048, 0); err == nil {
		t.Error("no error for oversized CTA")
	}
	if _, err := ComputeOccupancy(d, Resources{StaticSharedBytes: 64 * 1024}, 256, 0); err == nil {
		t.Error("no error for unfittable shared memory")
	}
}

func TestSMsNeeded(t *testing.T) {
	d := K40()
	occ := Occupancy{CTAsPerSM: 8, ActiveCTAs: 120}
	cases := []struct{ ctas, want int }{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {40, 5}, {120, 15}, {500, 15},
	}
	for _, c := range cases {
		if got := SMsNeeded(occ, c.ctas, d); got != c.want {
			t.Errorf("SMsNeeded(%d) = %d, want %d", c.ctas, got, c.want)
		}
	}
}
