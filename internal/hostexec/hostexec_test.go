package hostexec

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	cl "flep/internal/cudalite"
	"flep/internal/gpu"
)

// recordFor returns the first invocation record of the kernel, or nil.
func recordFor(r *Report, kernel string) *InvocationRecord {
	for i := range r.Invocations {
		if r.Invocations[i].Kernel == kernel {
			return &r.Invocations[i]
		}
	}
	return nil
}

const saxpyProgram = `
__global__ void saxpy(float* x, float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}

void run_saxpy(float* x, float* y, float a, int n) {
    saxpy<<<(n + 255) / 256, 256>>>(x, y, a, n);
}
`

func TestCompileBuildsArtifacts(t *testing.T) {
	p, err := Compile(saxpyProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ck := p.Kernels["saxpy"]
	if ck == nil {
		t.Fatal("saxpy not compiled")
	}
	if ck.L < 1 || ck.TaskCost <= 0 || ck.Profile.CTAsPerSM != 8 {
		t.Fatalf("artifacts %+v", ck)
	}
	if p.Original.Func("run_saxpy") == nil {
		t.Fatal("host function lost")
	}
	// Host code must have been rewritten.
	if !strings.Contains(cl.Format(p.Transformed), "flep_intercept(\"saxpy\"") {
		t.Fatal("host launch not intercepted")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not a program {{{", gpu.DefaultParams()); err == nil {
		t.Fatal("garbage compiled")
	}
	if _, err := Compile("void onlyhost() { }", gpu.DefaultParams()); err == nil {
		t.Fatal("kernel-less program compiled")
	}
}

// The headline test: the transformed host program runs end-to-end — its
// flep_intercept call reaches the runtime, the device model schedules it,
// and the functional interpreter produces the numerically correct result.
func TestEndToEndFunctionalResult(t *testing.T) {
	p, err := Compile(saxpyProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := 1000
	x := cl.NewFloatBuffer("x", n)
	y := cl.NewFloatBuffer("y", n)
	for i := 0; i < n; i++ {
		x.F[i] = float64(i)
		y.F[i] = 1
	}
	rep, err := Run(p, Options{}, HostProc{
		Func: "run_saxpy", Priority: 1,
		Args: []cl.Value{cl.PtrValue(x, 0), cl.PtrValue(y, 0), cl.FloatValue(2), cl.IntValue(int64(n))},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if y.F[i] != 2*float64(i)+1 {
			t.Fatalf("y[%d] = %g, want %g", i, y.F[i], 2*float64(i)+1)
		}
	}
	if len(rep.Invocations) != 1 {
		t.Fatalf("invocations = %d", len(rep.Invocations))
	}
	r := recordFor(rep, "saxpy")
	if r == nil || !r.Functional || r.Turnaround() <= 0 {
		t.Fatalf("record %+v", r)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

const twoProcProgram = `
__global__ void longk(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float acc = a[i];
        for (int r = 0; r < 64; ++r) {
            acc = acc * 1.000001 + 0.5;
        }
        a[i] = acc;
    }
}

__global__ void shortk(float* b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        b[i] = b[i] + 1.0;
    }
}

void run_long(float* a, int n) {
    longk<<<(n + 255) / 256, 256>>>(a, n);
}

void run_short(float* b, int n) {
    shortk<<<(n + 255) / 256, 256>>>(b, n);
}
`

// Two host processes: the high-priority short kernel must preempt the
// long-running one, exactly as with the built-in benchmarks.
func TestTwoProcessesPriorityPreemption(t *testing.T) {
	p, err := Compile(twoProcProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	nLong, nShort := 2_000_000, 2048
	a := cl.NewFloatBuffer("a", 16) // functional exec skipped (huge grid)
	b := cl.NewFloatBuffer("b", nShort)
	rep, err := Run(p, Options{Trace: true},
		HostProc{Name: "batch", Func: "run_long", Priority: 1,
			Args: []cl.Value{cl.PtrValue(a, 0), cl.IntValue(int64(nLong))}},
		HostProc{Name: "interactive", Func: "run_short", Priority: 2, At: 50 * time.Microsecond,
			Args: []cl.Value{cl.PtrValue(b, 0), cl.IntValue(int64(nShort))}},
	)
	if err != nil {
		t.Fatal(err)
	}
	long := recordFor(rep, "longk")
	short := recordFor(rep, "shortk")
	if long == nil || short == nil {
		t.Fatalf("records %+v", rep.Invocations)
	}
	if long.Functional {
		t.Fatal("huge grid should have run timing-only")
	}
	if !short.Functional {
		t.Fatal("short grid should have run functionally")
	}
	// Preemption: short finishes long before long does.
	if short.FinishedAt >= long.FinishedAt {
		t.Fatalf("short finished at %v, long at %v: no preemption", short.FinishedAt, long.FinishedAt)
	}
	// The trace must show the preemption.
	if len(rep.Log.Filter("preempt", 0)) == 0 {
		t.Fatal("no preempt event in trace")
	}
	// Functional result for the short kernel.
	for i := 0; i < nShort; i++ {
		if b.F[i] != 1 {
			t.Fatalf("b[%d] = %g", i, b.F[i])
		}
	}
}

const sleepProgram = `
__global__ void k(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = a[i] + 1.0;
    }
}

void run_twice(float* a, int n) {
    k<<<(n + 255) / 256, 256>>>(a, n);
    flep_sleep(500);
    k<<<(n + 255) / 256, 256>>>(a, n);
}
`

func TestHostSleepBetweenLaunches(t *testing.T) {
	p, err := Compile(sleepProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := 512
	a := cl.NewFloatBuffer("a", n)
	rep, err := Run(p, Options{}, HostProc{
		Func: "run_twice", Priority: 1,
		Args: []cl.Value{cl.PtrValue(a, 0), cl.IntValue(int64(n))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Invocations) != 2 {
		t.Fatalf("invocations = %d", len(rep.Invocations))
	}
	// Both launches ran functionally: a[i] incremented twice.
	for i := range a.F {
		if a.F[i] != 2 {
			t.Fatalf("a[%d] = %g", i, a.F[i])
		}
	}
	// The sleep separates the two submissions by ≥ 500us.
	gap := rep.Invocations[1].SubmittedAt - rep.Invocations[0].FinishedAt
	if gap < 500*time.Microsecond {
		t.Fatalf("gap = %v, want ≥ 500us", gap)
	}
}

func TestRunValidation(t *testing.T) {
	p, err := Compile(saxpyProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, Options{}, HostProc{Func: "missing"}); err == nil {
		t.Fatal("unknown host function accepted")
	}
	if _, err := Run(p, Options{Policy: "bogus"}, HostProc{Func: "run_saxpy"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
	// Times the user supplies are input: a negative one is an error from
	// Run, not the engine's negative-delay panic.
	_, err = Run(p, Options{}, HostProc{Func: "run_saxpy", At: -5 * time.Microsecond})
	if err == nil || !strings.Contains(err.Error(), "negative time") {
		t.Fatalf("negative start time: err = %v", err)
	}
	sleeper, err := Compile(saxpyProgram+"\nvoid nap(int us) { flep_sleep(us); }\n", gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(sleeper, Options{}, HostProc{Func: "nap", Args: []cl.Value{cl.IntValue(0 - 5)}})
	if err == nil || !strings.Contains(err.Error(), "flep_sleep: negative duration") {
		t.Fatalf("flep_sleep(-5): err = %v", err)
	}
	if _, err := Run(sleeper, Options{}, HostProc{Func: "nap", Args: []cl.Value{cl.IntValue(5)}}); err != nil {
		t.Fatalf("flep_sleep(5): %v", err)
	}
}

// reduceProgram sums x with float atomics; float addition does not
// commute, so the sum's bits record the order the threads ran in.
const reduceProgram = `
__global__ void reduce(float* x, float* sum, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(sum, x[i]);
    }
}

void run_reduce(float* x, float* sum, int n) {
    reduce<<<(n + 255) / 256, 256>>>(x, sum, n);
}
`

// A session is a function of its inputs: the makespan and the data its
// kernels leave behind repeat bit for bit.
func TestDeterministicAcrossRuns(t *testing.T) {
	p, err := Compile(twoProcProgram+reduceProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	x := cl.NewFloatBuffer("x", 1024)
	for i := range x.F {
		x.F[i] = math.Pow(10, float64(i%12)) / float64(i+1)
	}
	run := func() (time.Duration, float64) {
		a := cl.NewFloatBuffer("a", 16)
		b := cl.NewFloatBuffer("b", 256)
		sum := cl.NewFloatBuffer("sum", 1)
		rep, err := Run(p, Options{},
			HostProc{Func: "run_long", Priority: 1, Args: []cl.Value{cl.PtrValue(a, 0), cl.IntValue(2000000)}},
			HostProc{Func: "run_short", Priority: 2, At: 20 * time.Microsecond, Args: []cl.Value{cl.PtrValue(b, 0), cl.IntValue(256)}},
			HostProc{Func: "run_reduce", Priority: 2, At: 30 * time.Microsecond, Args: []cl.Value{cl.PtrValue(x, 0), cl.PtrValue(sum, 0), cl.IntValue(int64(x.Len()))}},
		)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan, sum.F[0]
	}
	m1, s1 := run()
	for i := 0; i < 20; i++ {
		m, s := run()
		if m != m1 {
			t.Fatalf("nondeterministic makespan: %v vs %v", m, m1)
		}
		if math.Float64bits(s) != math.Float64bits(s1) {
			t.Fatalf("run %d: nondeterministic reduction: %v vs %v", i, s, s1)
		}
	}
}

// A failing host must not strand the others: the session unwinds every
// host still suspended, so ten failed sessions leave no goroutine behind.
func TestFailedRunLeavesNoHostBehind(t *testing.T) {
	p, err := Compile(saxpyProgram+"\nvoid nap(int us) { flep_sleep(us); }\n", gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_, err := Run(p, Options{},
			HostProc{Name: "sleeper", Func: "nap", Args: []cl.Value{cl.IntValue(1000)}},
			HostProc{Name: "failer", Func: "nap", Args: []cl.Value{cl.IntValue(0 - 5)}},
		)
		if err == nil || !strings.Contains(err.Error(), "negative duration") {
			t.Fatalf("session %d: err = %v, want flep_sleep's negative duration", i, err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines %d → %d after 10 failed sessions", base, n)
	}
}

const asyncProgram = `
__global__ void inc(float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = a[i] + 1.0;
    }
}

void run_async(float* a, float* b, float* c, int n) {
    inc<<<(n + 255) / 256, 256>>>(a, n);
    inc<<<(n + 255) / 256, 256>>>(b, n);
    inc<<<(n + 255) / 256, 256>>>(c, n);
    flep_sync();
}
`

func TestAsyncLaunchesOverlapInQueue(t *testing.T) {
	p, err := Compile(asyncProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := 512
	a := cl.NewFloatBuffer("a", n)
	b := cl.NewFloatBuffer("b", n)
	c := cl.NewFloatBuffer("c", n)
	rep, err := Run(p, Options{},
		HostProc{Func: "run_async", Priority: 1, Async: true,
			Args: []cl.Value{cl.PtrValue(a, 0), cl.PtrValue(b, 0), cl.PtrValue(c, 0), cl.IntValue(int64(n))}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Invocations) != 3 {
		t.Fatalf("invocations = %d, want 3", len(rep.Invocations))
	}
	// All three were submitted before the first finished (async): the
	// later submissions happen while the first is still in flight.
	var maxSubmit, minFinish time.Duration
	minFinish = 1 << 62
	for _, r := range rep.Invocations {
		if r.SubmittedAt > maxSubmit {
			maxSubmit = r.SubmittedAt
		}
		if r.FinishedAt < minFinish {
			minFinish = r.FinishedAt
		}
	}
	if maxSubmit >= minFinish {
		t.Fatalf("launches did not overlap: last submit %v, first finish %v", maxSubmit, minFinish)
	}
	// flep_sync before return: all functional effects applied.
	for i := 0; i < n; i++ {
		if a.F[i] != 1 || b.F[i] != 1 || c.F[i] != 1 {
			t.Fatalf("buffers not all incremented at %d", i)
		}
	}
}

func TestSyncHostIgnoresFlepSync(t *testing.T) {
	p, err := Compile(asyncProgram, gpu.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	a := cl.NewFloatBuffer("a", n)
	b := cl.NewFloatBuffer("b", n)
	c := cl.NewFloatBuffer("c", n)
	// Same program, synchronous host: flep_sync is a no-op.
	if _, err := Run(p, Options{},
		HostProc{Func: "run_async", Priority: 1,
			Args: []cl.Value{cl.PtrValue(a, 0), cl.PtrValue(b, 0), cl.PtrValue(c, 0), cl.IntValue(int64(n))}},
	); err != nil {
		t.Fatal(err)
	}
	if a.F[0] != 1 || b.F[0] != 1 || c.F[0] != 1 {
		t.Fatal("synchronous run incorrect")
	}
}
