// Package kernels defines the paper's eight benchmarks (Table 1): their
// MiniCUDA sources, hardware profiles, calibrated input classes, and
// deterministic data generators for interpreter-level validation.
//
// Timing calibration: per-task base costs and task counts are chosen so the
// simulated solo runtimes reproduce Table 1's measured times on the K40,
// and so the offline amortizing-factor tuner lands near the paper's values
// (L=1 for the heavy-task kernels CFD/MD through L≈200 for VA).
package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"flep/internal/cudalite"
	"flep/internal/gpu"
	"flep/internal/transform"
)

// InputClass selects one of the paper's three evaluation inputs.
type InputClass int

// Input classes (Table 1 columns).
const (
	Large InputClass = iota
	Small
	Trivial
)

// String names the input class.
func (c InputClass) String() string {
	switch c {
	case Large:
		return "large"
	case Small:
		return "small"
	case Trivial:
		return "trivial"
	default:
		return "?"
	}
}

// Classes lists all input classes in Table 1 order.
func Classes() []InputClass { return []InputClass{Large, Small, Trivial} }

// ParseClass maps a launch's input-class name to its InputClass; the
// empty name means small.
func ParseClass(name string) (InputClass, error) {
	switch name {
	case "", "small":
		return Small, nil
	case "large":
		return Large, nil
	case "trivial":
		return Trivial, nil
	}
	return 0, fmt.Errorf("unknown input class %q (want large, small, or trivial)", name)
}

// Input is one concrete workload: the task count (original grid size) and
// the calibrated per-task cost, plus the features the performance model
// sees (§4.2: grid size, CTA size, input size, shared memory size).
type Input struct {
	Class InputClass
	// Tasks is the original kernel's grid size (one task per CTA).
	Tasks int
	// TaskCost is the per-task duration at full occupancy. Small inputs
	// share the large input's cost; trivial inputs pay a latency-hiding
	// penalty (too few resident warps to cover memory latency).
	TaskCost time.Duration
	// Bytes is the input-size feature.
	Bytes int64
}

// Benchmark is one of the paper's eight applications.
type Benchmark struct {
	Name        string
	Suite       string
	Description string
	// Source is the MiniCUDA translation unit; KernelName its kernel.
	Source     string
	KernelName string
	// ThreadsPerCTA is the CTA size (256 for every benchmark; MM as 16x16).
	ThreadsPerCTA int
	// Block is the CTA shape for interpreter runs.
	Block cudalite.Dim3
	// MemoryIntensity and ContentionFloor parameterize the GPU model.
	MemoryIntensity float64
	ContentionFloor float64
	// Irregularity scales input-dependent duration noise: how much the
	// true runtime deviates from what the linear features predict
	// (drives Figure 7's per-benchmark error spread).
	Irregularity float64
	// BytesPerTask converts tasks to the input-size feature.
	BytesPerTask int64
	// PaperL is Table 1's amortizing factor, kept for comparison.
	PaperL int
	// PaperTime are Table 1's measured solo runtimes.
	PaperTime map[InputClass]time.Duration
	// inputs are the calibrated workload classes.
	inputs map[InputClass]Input
}

// Input returns the calibrated workload for the class.
func (b *Benchmark) Input(c InputClass) Input { return b.inputs[c] }

// LaunchInput resolves one launch to its workload: the class's calibrated
// input, or, when tasksOverride is positive, that input at the overridden
// grid size with the input-size feature rescaled to match. The size
// saturates instead of wrapping, so no grid's working set fits a device
// by overflowing.
func (b *Benchmark) LaunchInput(c InputClass, tasksOverride int) Input {
	in := b.inputs[c]
	if tasksOverride > 0 {
		in.Tasks = tasksOverride
		in.Bytes = math.MaxInt64
		if int64(in.Tasks) <= math.MaxInt64/b.BytesPerTask {
			in.Bytes = int64(in.Tasks) * b.BytesPerTask
		}
	}
	return in
}

// WorkingSet is the launch's resident device-memory footprint. It is well
// below the logical access volume (Bytes) thanks to reuse; /8 puts the
// largest benchmark near 3.5 GB, comfortably inside the K40's 12 GB as
// the paper assumes (§8).
func (in Input) WorkingSet() int64 { return in.Bytes / 8 }

// Parse returns the benchmark's parsed MiniCUDA program.
func (b *Benchmark) Parse() (*cudalite.Program, error) {
	return cudalite.Parse(b.Source)
}

// Profile derives the benchmark's GPU execution profile: occupancy from the
// compilation engine's resource scan plus the calibrated intensity knobs.
func (b *Benchmark) Profile(limits transform.DeviceLimits) (*gpu.KernelProfile, error) {
	_, res, err := b.Scan()
	if err != nil {
		return nil, fmt.Errorf("kernels: %s: %w", b.Name, err)
	}
	return b.ProfileOf(res, limits)
}

// Scan parses the benchmark's source, finds its __global__ kernel and
// scans that kernel's resources, for Profile and the offline phase.
func (b *Benchmark) Scan() (prog *cudalite.Program, res transform.Resources, err error) {
	if prog, err = b.Parse(); err != nil {
		return nil, res, err
	}
	k := prog.Kernel(b.KernelName)
	if k == nil {
		return nil, res, fmt.Errorf("no __global__ kernel %q", b.KernelName)
	}
	res, err = transform.EstimateResources(prog, k)
	return prog, res, err
}

// ProfileOf is Profile from a resource scan the caller already has.
func (b *Benchmark) ProfileOf(res transform.Resources, limits transform.DeviceLimits) (*gpu.KernelProfile, error) {
	occ, err := transform.ComputeOccupancy(limits, res, b.ThreadsPerCTA, 0)
	if err != nil {
		return nil, err
	}
	return &gpu.KernelProfile{
		Name:            b.Name,
		ThreadsPerCTA:   b.ThreadsPerCTA,
		CTAsPerSM:       occ.CTAsPerSM,
		MemoryIntensity: b.MemoryIntensity,
		ContentionFloor: b.ContentionFloor,
	}, nil
}

// noiseRNG holds generators for NoiseAt to reseed: math/rand's NormFloat64
// over a seededSource, which draws without filling a 607-word state.
var noiseRNG = sync.Pool{New: func() any { return rand.New(&seededSource{}) }}

// NoiseAt returns the deterministic input-dependent duration multiplier for
// the benchmark at input seed: 1 + η with η ~ clipped Gaussian scaled by
// the benchmark's irregularity. Regular kernels (NN, MM, VA) have small η;
// SPMV's η is the largest, echoing Figure 7.
func (b *Benchmark) NoiseAt(seed int64) float64 {
	rng := noiseRNG.Get().(*rand.Rand)
	// Seed resets the source and the Rand's own read buffer, so the draw is
	// the one a fresh generator at this seed would make.
	rng.Seed(seed*1_000_003 + int64(len(b.Name))*7919 + int64(b.Name[0]))
	eta := rng.NormFloat64() * b.Irregularity
	noiseRNG.Put(rng)
	limit := 2.5 * b.Irregularity
	if eta > limit {
		eta = limit
	}
	if eta < -limit {
		eta = -limit
	}
	return 1 + eta
}

// ScaledInput synthesizes a workload between trivial and large scale for
// performance-model training (§4.2 uses 100 randomly generated inputs).
// scale in (0, 1]; the returned input's TaskCost carries the benchmark's
// deterministic irregularity noise for the given seed.
func (b *Benchmark) ScaledInput(scale float64, seed int64) Input {
	if scale <= 0 {
		scale = 1e-4
	}
	if scale > 1 {
		scale = 1
	}
	large := b.inputs[Large]
	tasks := int(float64(large.Tasks) * scale)
	if tasks < 1 {
		tasks = 1
	}
	cost := time.Duration(float64(large.TaskCost) * b.NoiseAt(seed))
	return Input{
		Class:    Large, // synthetic inputs have no class; Large placeholder
		Tasks:    tasks,
		TaskCost: cost,
		Bytes:    int64(tasks) * b.BytesPerTask,
	}
}

func us(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }

func mkInputs(b *Benchmark, largeCost, trivialCost time.Duration, largeTasks, smallTasks int) {
	b.inputs = map[InputClass]Input{
		Large:   {Class: Large, Tasks: largeTasks, TaskCost: largeCost, Bytes: int64(largeTasks) * b.BytesPerTask},
		Small:   {Class: Small, Tasks: smallTasks, TaskCost: largeCost, Bytes: int64(smallTasks) * b.BytesPerTask},
		Trivial: {Class: Trivial, Tasks: 40, TaskCost: trivialCost, Bytes: 40 * b.BytesPerTask},
	}
}

var all []*Benchmark

func init() {
	mk := func(b *Benchmark, largeCost, trivialCost time.Duration, largeTasks, smallTasks int, paperTimes [3]float64) {
		b.PaperTime = map[InputClass]time.Duration{
			Large:   us(paperTimes[0]),
			Small:   us(paperTimes[1]),
			Trivial: us(paperTimes[2]),
		}
		mkInputs(b, largeCost, trivialCost, largeTasks, smallTasks)
		all = append(all, b)
	}

	mk(&Benchmark{
		Name: "CFD", Suite: "Rodinia", Description: "finite volume solver",
		Source: SrcCFD, KernelName: "cfd", ThreadsPerCTA: 256, Block: cudalite.D1(256),
		MemoryIntensity: 0.60, ContentionFloor: 0.85, Irregularity: 0.100,
		BytesPerTask: 9216, PaperL: 1,
	}, us(120), us(83.2), 11100, 515, [3]float64{11106, 521, 81})

	mk(&Benchmark{
		Name: "NN", Suite: "Rodinia", Description: "nearest neighbor",
		Source: SrcNN, KernelName: "nn", ThreadsPerCTA: 256, Block: cudalite.D1(256),
		MemoryIntensity: 0.75, ContentionFloor: 0.55, Irregularity: 0.034,
		BytesPerTask: 3072, PaperL: 100,
	}, us(0.551), us(69.6), 3434265, 157241, [3]float64{15775, 728, 55})

	mk(&Benchmark{
		Name: "PF", Suite: "Rodinia", Description: "dynamic programming (pathfinder)",
		Source: SrcPF, KernelName: "pf", ThreadsPerCTA: 256, Block: cudalite.D1(256),
		MemoryIntensity: 0.55, ContentionFloor: 0.70, Irregularity: 0.090,
		BytesPerTask: 2048, PaperL: 150,
	}, us(0.451), us(63.5), 1957783, 214190, [3]float64{7364, 811, 57})

	mk(&Benchmark{
		Name: "PL", Suite: "Rodinia", Description: "Bayesian framework (particlefilter)",
		Source: SrcPL, KernelName: "pl", ThreadsPerCTA: 256, Block: cudalite.D1(256),
		MemoryIntensity: 0.50, ContentionFloor: 0.75, Irregularity: 0.100,
		BytesPerTask: 4096, PaperL: 100,
	}, us(0.551), us(92.1), 1178875, 206025, [3]float64{5419, 952, 83})

	mk(&Benchmark{
		Name: "MD", Suite: "SHOC", Description: "molecular dynamics",
		Source: SrcMD, KernelName: "md", ThreadsPerCTA: 256, Block: cudalite.D1(256),
		MemoryIntensity: 0.35, ContentionFloor: 0.90, Irregularity: 0.110,
		BytesPerTask: 16640, PaperL: 1,
	}, us(150), us(89.9), 12719, 746, [3]float64{15905, 938, 90})

	mk(&Benchmark{
		Name: "SPMV", Suite: "SHOC", Description: "sparse matrix vector multiply",
		Source: SrcSPMV, KernelName: "spmv", ThreadsPerCTA: 256, Block: cudalite.D1(256),
		MemoryIntensity: 0.90, ContentionFloor: 0.50, Irregularity: 0.1525,
		BytesPerTask: 8192, PaperL: 2,
	}, us(28), us(92.4), 25003, 2049, [3]float64{5840, 484, 68})

	mk(&Benchmark{
		Name: "MM", Suite: "CUDA SDK", Description: "dense matrix multiplication",
		Source: SrcMM, KernelName: "mm", ThreadsPerCTA: 256, Block: cudalite.D2(16, 16),
		MemoryIntensity: 0.30, ContentionFloor: 0.80, Irregularity: 0.036,
		BytesPerTask: 2048, PaperL: 2,
	}, us(28), us(77.1), 11027, 6399, [3]float64{2579, 1499, 73})

	mk(&Benchmark{
		Name: "VA", Suite: "CUDA SDK", Description: "vector addition",
		Source: SrcVA, KernelName: "va", ThreadsPerCTA: 256, Block: cudalite.D1(256),
		MemoryIntensity: 1.00, ContentionFloor: 0.45, Irregularity: 0.042,
		BytesPerTask: 3072, PaperL: 200,
	}, us(0.401), us(67.4), 9181514, 213673, [3]float64{30634, 720, 49})
}

// All returns the eight benchmarks in Table 1 order.
func All() []*Benchmark { return all }

// ByName returns the named benchmark or an error.
func ByName(name string) (*Benchmark, error) {
	for _, b := range all {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
}

// Names returns the benchmark names in Table 1 order.
func Names() []string {
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Name
	}
	return out
}
