package kernels

import (
	"math"
	"strings"
	"testing"
	"time"

	cl "flep/internal/cudalite"
	"flep/internal/gpu"
	"flep/internal/sim"
	"flep/internal/transform"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"CFD", "NN", "PF", "PL", "MD", "SPMV", "MM", "VA"}
	got := Names()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("benchmarks = %v, want %v", got, want)
	}
	if _, err := ByName("VA"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("XX"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestAllSourcesParseAndContainKernel(t *testing.T) {
	for _, b := range All() {
		prog, err := b.Parse()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if prog.Kernel(b.KernelName) == nil {
			t.Fatalf("%s: kernel %q missing", b.Name, b.KernelName)
		}
	}
}

// All benchmarks were calibrated at the paper's 120-active-CTA operating
// point: 8 CTAs/SM at 256 threads.
func TestProfilesAtPaperOccupancy(t *testing.T) {
	for _, b := range All() {
		prof, err := b.Profile(transform.K40())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if prof.CTAsPerSM != 8 {
			t.Errorf("%s: occupancy %d CTAs/SM, want 8", b.Name, prof.CTAsPerSM)
		}
		if prof.MemoryIntensity < 0 || prof.MemoryIntensity > 1 {
			t.Errorf("%s: memory intensity %f", b.Name, prof.MemoryIntensity)
		}
		if prof.ContentionFloor <= 0 || prof.ContentionFloor > 1 {
			t.Errorf("%s: contention floor %f", b.Name, prof.ContentionFloor)
		}
	}
}

func TestInputClassesDefined(t *testing.T) {
	for _, b := range All() {
		for _, c := range Classes() {
			in := b.Input(c)
			if in.Tasks <= 0 || in.TaskCost <= 0 || in.Bytes <= 0 {
				t.Errorf("%s/%s: incomplete input %+v", b.Name, c, in)
			}
		}
		lg, sm, tr := b.Input(Large), b.Input(Small), b.Input(Trivial)
		if !(lg.Tasks > sm.Tasks && sm.Tasks > tr.Tasks) {
			t.Errorf("%s: task counts not ordered: %d/%d/%d", b.Name, lg.Tasks, sm.Tasks, tr.Tasks)
		}
		// Large and small need all SMs; trivial must not.
		if sm.Tasks < 120 {
			t.Errorf("%s: small input (%d tasks) does not fill the GPU", b.Name, sm.Tasks)
		}
		if tr.Tasks >= 120 {
			t.Errorf("%s: trivial input (%d tasks) fills the GPU", b.Name, tr.Tasks)
		}
	}
}

// soloTime measures the simulated solo runtime of (benchmark, class) as the
// original (untransformed) kernel on an idle device.
func soloTime(t *testing.T, b *Benchmark, c InputClass) time.Duration {
	t.Helper()
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	prof, err := b.Profile(transform.K40())
	if err != nil {
		t.Fatal(err)
	}
	in := b.Input(c)
	var done time.Duration
	_, err = dev.Start(gpu.ExecConfig{
		Profile: prof, TotalTasks: in.Tasks, TaskCost: in.TaskCost,
		SMLo: 0, SMHi: dev.NumSMs(),
		OnComplete: func() { done = eng.Now() },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == 0 {
		t.Fatalf("%s/%s never completed", b.Name, c)
	}
	return done
}

// Table 1 calibration: simulated solo runtimes must reproduce the paper's
// measured times — tightly for the GPU-filling inputs, loosely for trivial
// (which depends on the sparse-occupancy model).
func TestSoloTimesReproduceTable1(t *testing.T) {
	for _, b := range All() {
		for _, c := range Classes() {
			got := soloTime(t, b, c)
			want := b.PaperTime[c]
			tol := 0.03
			if c == Trivial {
				tol = 0.15
			}
			lo := time.Duration(float64(want) * (1 - tol))
			hi := time.Duration(float64(want) * (1 + tol))
			if got < lo || got > hi {
				t.Errorf("%s/%s: solo time %v, paper %v (tolerance %.0f%%)",
					b.Name, c, got, want, tol*100)
			}
		}
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	for _, b := range All() {
		for seed := int64(0); seed < 50; seed++ {
			n1 := b.NoiseAt(seed)
			n2 := b.NoiseAt(seed)
			if n1 != n2 {
				t.Fatalf("%s: noise not deterministic", b.Name)
			}
			limit := 2.5 * b.Irregularity
			if n1 < 1-limit-1e-12 || n1 > 1+limit+1e-12 {
				t.Fatalf("%s: noise %f outside ±%f", b.Name, n1, limit)
			}
		}
	}
}

func TestRegularKernelsHaveLowIrregularity(t *testing.T) {
	// "NN, MM, and VA have regular parallelism and memory access
	// patterns"; SPMV is the hardest to predict (Fig. 7).
	regular := map[string]bool{"NN": true, "MM": true, "VA": true}
	spmv, _ := ByName("SPMV")
	for _, b := range All() {
		if regular[b.Name] && b.Irregularity > 0.05 {
			t.Errorf("%s: irregularity %f too high for a regular kernel", b.Name, b.Irregularity)
		}
		if !regular[b.Name] && b.Name != "SPMV" && b.Irregularity >= spmv.Irregularity {
			t.Errorf("%s: irregularity exceeds SPMV's", b.Name)
		}
	}
}

func TestScaledInput(t *testing.T) {
	b, _ := ByName("VA")
	small := b.ScaledInput(0.1, 1)
	large := b.ScaledInput(0.9, 1)
	if small.Tasks >= large.Tasks {
		t.Fatal("scaled tasks not monotone")
	}
	if small.Bytes != int64(small.Tasks)*b.BytesPerTask {
		t.Fatal("bytes feature inconsistent")
	}
	if b.ScaledInput(-1, 1).Tasks <= 0 || b.ScaledInput(2, 1).Tasks != b.Input(Large).Tasks {
		t.Fatal("scale clamping broken")
	}
}

// An overridden grid's size feature saturates: tasks_override
// 9223372036854775807 wrapped VA's working set to -384 bytes, which fit the
// device's memory, and the launch then held flepd's event loop for good.
func TestLaunchInputSizeSaturates(t *testing.T) {
	for _, b := range All() {
		fits := b.LaunchInput(Small, 1<<20)
		if fits.Bytes != (1<<20)*b.BytesPerTask {
			t.Errorf("%s: %d bytes for 2^20 tasks, want %d", b.Name, fits.Bytes, (1<<20)*b.BytesPerTask)
		}
		for _, tasks := range []int{math.MaxInt64, int(math.MaxInt64/b.BytesPerTask) + 1} {
			in := b.LaunchInput(Small, tasks)
			if in.Tasks != tasks || in.Bytes < fits.Bytes || in.WorkingSet() < fits.WorkingSet() {
				t.Errorf("%s at %d tasks: %d bytes, working set %d; %d tasks need %d",
					b.Name, tasks, in.Bytes, in.WorkingSet(), fits.Tasks, fits.WorkingSet())
			}
		}
	}
}

// testSize picks an instance size giving each benchmark at least 4 CTAs
// while keeping interpretation cheap (MM's 256-thread tiles dominate).
func testSize(b *Benchmark) int {
	switch b.Name {
	case "MM":
		return 40 // 3x3 grid of 16x16 tiles
	case "PF":
		return 1000 // 4 CTAs of 256 threads
	default:
		return 320 // 5 CTAs of 64 threads
	}
}

// Every benchmark kernel must survive the FLEP transformation and produce
// bit-identical (float-tolerant) results when run as a persistent-thread
// kernel through the interpreter.
func TestAllBenchmarksTransformEquivalent(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Parse()
			if err != nil {
				t.Fatal(err)
			}
			out, info, err := transform.TransformKernel(prog, b.KernelName, transform.ModeTemporal)
			if err != nil {
				t.Fatal(err)
			}
			n := testSize(b)
			ref, err := b.MakeData(n, 42)
			if err != nil {
				t.Fatal(err)
			}
			tr := ref.Clone()

			m := cl.NewMachine(out)
			if err := m.Launch(b.KernelName, cl.LaunchConfig{Grid: ref.Grid, Block: ref.Block, Args: ref.Args}); err != nil {
				t.Fatalf("original run: %v", err)
			}

			flag := cl.NewIntBuffer("flag", 1)
			flag.Volatile = true
			counter := cl.NewIntBuffer("counter", 1)
			args := append(append([]cl.Value{}, tr.Args...),
				cl.PtrValue(flag, 0), cl.PtrValue(counter, 0),
				cl.IntValue(int64(tr.Grid.Count())),
				cl.IntValue(int64(tr.Grid.Norm().X)), cl.IntValue(int64(tr.Grid.Norm().Y)),
				cl.IntValue(3), // L
			)
			m2 := cl.NewMachine(out)
			err = m2.Launch(info.Preemptable, cl.LaunchConfig{
				Grid: cl.D1(4), Block: tr.Block, Args: args,
			})
			if err != nil {
				t.Fatalf("transformed run: %v", err)
			}
			compareOutputs(t, b.Name, ref, tr)
		})
	}
}

// Preempt each benchmark mid-run and resume: outputs must still match.
func TestAllBenchmarksPreemptResumeEquivalent(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := b.Parse()
			if err != nil {
				t.Fatal(err)
			}
			out, info, err := transform.TransformKernel(prog, b.KernelName, transform.ModeTemporal)
			if err != nil {
				t.Fatal(err)
			}
			n := testSize(b)
			ref, err := b.MakeData(n, 7)
			if err != nil {
				t.Fatal(err)
			}
			tr := ref.Clone()

			m := cl.NewMachine(out)
			if err := m.Launch(b.KernelName, cl.LaunchConfig{Grid: ref.Grid, Block: ref.Block, Args: ref.Args}); err != nil {
				t.Fatal(err)
			}

			flag := cl.NewIntBuffer("flag", 1)
			flag.Volatile = true
			counter := cl.NewIntBuffer("counter", 1)
			args := append(append([]cl.Value{}, tr.Args...),
				cl.PtrValue(flag, 0), cl.PtrValue(counter, 0),
				cl.IntValue(int64(tr.Grid.Count())),
				cl.IntValue(int64(tr.Grid.Norm().X)), cl.IntValue(int64(tr.Grid.Norm().Y)),
				cl.IntValue(1),
			)
			m2 := cl.NewMachine(out)
			polls := 0
			m2.OnVolatileRead = func(buf *cl.Buffer, idx int) {
				polls++
				if polls == 2 {
					buf.I[0] = 1 // preempt early
				}
			}
			launch := func() error {
				return m2.Launch(info.Preemptable, cl.LaunchConfig{Grid: cl.D1(2), Block: tr.Block, Args: args})
			}
			if err := launch(); err != nil {
				t.Fatal(err)
			}
			if counter.I[0] >= int64(tr.Grid.Count()) {
				t.Fatal("preemption landed after completion; adjust poll point")
			}
			flag.I[0] = 0
			m2.OnVolatileRead = nil
			if err := launch(); err != nil {
				t.Fatal(err)
			}
			compareOutputs(t, b.Name, ref, tr)
		})
	}
}

func compareOutputs(t *testing.T, name string, ref, tr *DeviceData) {
	t.Helper()
	for oi := range ref.Outputs {
		rb, tb := ref.Outputs[oi], tr.Outputs[oi]
		if rb.Len() != tb.Len() {
			t.Fatalf("%s: output %d length mismatch", name, oi)
		}
		for i := 0; i < rb.Len(); i++ {
			rv, _ := rb.Load(i)
			tv, _ := tb.Load(i)
			if rb.Kind == cl.TFloat {
				d := rv.Float() - tv.Float()
				if d < 0 {
					d = -d
				}
				scale := 1.0
				if s := rv.Float(); s > 1 || s < -1 {
					if s < 0 {
						s = -s
					}
					scale = s
				}
				if d/scale > 1e-9 {
					t.Fatalf("%s: output %d[%d] = %g, want %g", name, oi, i, tv.Float(), rv.Float())
				}
			} else if rv.Int() != tv.Int() {
				t.Fatalf("%s: output %d[%d] = %d, want %d", name, oi, i, tv.Int(), rv.Int())
			}
		}
	}
}

func TestMakeDataDeterministic(t *testing.T) {
	for _, b := range All() {
		d1, err := b.MakeData(64, 5)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := b.MakeData(64, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(d1.Args) != len(d2.Args) {
			t.Fatalf("%s: arg count differs", b.Name)
		}
		for i := range d1.Args {
			a, bb := d1.Args[i], d2.Args[i]
			if a.Kind != bb.Kind {
				t.Fatalf("%s: arg %d kind differs", b.Name, i)
			}
			if a.Kind == cl.KPtr {
				for j := 0; j < a.P.Buf.Len(); j++ {
					va, _ := a.P.Buf.Load(j)
					vb, _ := bb.P.Buf.Load(j)
					if va != vb {
						t.Fatalf("%s: arg %d[%d] differs", b.Name, i, j)
					}
				}
			}
		}
	}
}

func TestCloneIsolatesBuffers(t *testing.T) {
	b, _ := ByName("VA")
	d, err := b.MakeData(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	c.Outputs[0].F[0] = 123456
	if d.Outputs[0].F[0] == 123456 {
		t.Fatal("clone shares output buffer")
	}
}
