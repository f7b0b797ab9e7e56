package cudalite

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// slotsSrc records the order in which threads pass two atomics, one on
// each side of a barrier, so it takes the coroutine path.
const slotsSrc = `
__global__ void slots(int* out, int* next) {
    out[atomicAdd(next, 1)] = threadIdx.x;
    __syncthreads();
    out[atomicAdd(next, 1)] = threadIdx.x;
}
`

// reduceSrc sums x with float atomics and no barrier, so it takes the
// direct path; float addition does not commute, so the sum's bits record
// the order too.
const reduceSrc = `
__global__ void reduce(float* x, float* sum, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(sum, x[i]);
    }
}
`

// One simulated thread runs at a time, so results are a function of the
// program and its inputs: twenty runs of each kernel, at GOMAXPROCS 1 and
// 2, are bit-identical, and they follow the documented schedule — rounds
// alternate direction, and odd CTAs start descending.
func TestInterleavingIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const ctas, threads = 4, 256
	slots := NewMachine(mustParse(t, slotsSrc))
	reduce := NewMachine(mustParse(t, reduceSrc))
	x := NewFloatBuffer("x", ctas*threads)
	rng := rand.New(rand.NewSource(1))
	for i := range x.F {
		x.F[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(12)))
	}
	runSlots := func() []int64 {
		out := NewIntBuffer("out", 2*ctas*threads)
		next := NewIntBuffer("next", 1)
		if err := slots.Launch("slots", LaunchConfig{Grid: D1(ctas), Block: D1(threads), Args: []Value{PtrValue(out, 0), PtrValue(next, 0)}}); err != nil {
			t.Fatal(err)
		}
		return out.I
	}
	runReduce := func() float64 {
		sum := NewFloatBuffer("sum", 1)
		if err := reduce.Launch("reduce", LaunchConfig{Grid: D1(ctas), Block: D1(threads), Args: []Value{PtrValue(x, 0), PtrValue(sum, 0), IntValue(int64(x.Len()))}}); err != nil {
			t.Fatal(err)
		}
		return sum.F[0]
	}

	firstOrder, firstSum := runSlots(), runReduce()
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 20; run++ {
			if got := runSlots(); !slices.Equal(got, firstOrder) {
				t.Fatalf("GOMAXPROCS=%d run %d: atomic slots differ from the first run's", procs, run)
			}
			if got := runReduce(); math.Float64bits(got) != math.Float64bits(firstSum) {
				t.Fatalf("GOMAXPROCS=%d run %d: sum %v, first run %v", procs, run, got, firstSum)
			}
		}
	}

	var wantOrder []int64
	wantSum := 0.0
	for cta := 0; cta < ctas; cta++ {
		up := make([]int64, threads)
		for i := range up {
			up[i] = int64(i)
		}
		down := slices.Clone(up)
		slices.Reverse(down)
		first, second := up, down
		if cta%2 == 1 {
			first, second = down, up
		}
		wantOrder = append(append(wantOrder, first...), second...)
		for _, tid := range first {
			wantSum += x.F[cta*threads+int(tid)]
		}
	}
	if !slices.Equal(firstOrder, wantOrder) {
		t.Fatalf("atomic slots %v…, want the alternating schedule %v…", firstOrder[:8], wantOrder[:8])
	}
	if firstSum != wantSum {
		t.Fatalf("sum %v, want %v: the direct path runs each CTA's threads in its first round's order", firstSum, wantSum)
	}
}
