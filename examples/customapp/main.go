// Custom application demo: write your own CUDA-style program (not one of
// the paper's benchmarks), compile it with the FLEP compilation engine, and
// run its host code end-to-end — two host processes share the simulated
// GPU, the interactive one preempts the batch one, and the data results are
// real (computed by the MiniCUDA interpreter).
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"flep"
)

const app = `
__global__ void blur(float* src, float* dst, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float left = i > 0 ? src[i - 1] : src[i];
        float right = i < n - 1 ? src[i + 1] : src[i];
        dst[i] = (left + src[i] + right) / 3.0;
    }
}

__global__ void simulate(float* state, int n, int rounds) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float v = state[i];
        for (int r = 0; r < rounds; ++r) {
            v = v * 0.999 + 0.001 * (float)i;
        }
        state[i] = v;
    }
}

void run_batch(float* state, int n, int rounds) {
    simulate<<<(n + 255) / 256, 256>>>(state, n, rounds);
}

void run_interactive(float* src, float* dst, int n) {
    flep_sleep(200);
    blur<<<(n + 255) / 256, 256>>>(src, dst, n);
    flep_sleep(300);
    blur<<<(n + 255) / 256, 256>>>(dst, src, n);
}
`

func main() {
	prog, err := flep.CompileProgram(app)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(prog.Kernels))
	for name := range prog.Kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k := prog.Kernels[name]
		fmt.Printf("compiled %-9s task-cost≈%-8v tuned L=%d\n", name, k.TaskCost, k.L)
	}

	// Batch tenant: a huge long-running simulation (timing-only).
	state := flep.NewFloatBuffer("state", 16)
	// Interactive tenant: two small blur queries over a real image row.
	n := 1024
	src := flep.NewFloatBuffer("src", n)
	dst := flep.NewFloatBuffer("dst", n)
	for i := 0; i < n; i++ {
		src.F[i] = float64(i % 16)
	}

	report, err := flep.RunProgram(prog, flep.RunOptions{Trace: true},
		flep.HostProc{
			Name: "batch", Func: "run_batch", Priority: 1,
			Args: []flep.Value{flep.Ptr(state, 0), flep.Int(40_000_000), flep.Int(64)},
		},
		flep.HostProc{
			Name: "interactive", Func: "run_interactive", Priority: 2,
			Args: []flep.Value{flep.Ptr(src, 0), flep.Ptr(dst, 0), flep.Int(int64(n))},
		},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s %-9s %12s %12s %11s %s\n", "proc", "kernel", "submit", "finish", "turnaround", "functional")
	for _, r := range report.Invocations {
		fmt.Printf("%-12s %-9s %12v %12v %11v %v\n",
			r.Proc, r.Kernel,
			r.SubmittedAt.Round(time.Microsecond), r.FinishedAt.Round(time.Microsecond),
			r.Turnaround().Round(time.Microsecond), r.Functional)
	}
	fmt.Printf("\nmakespan %v, preemptions in trace: %d\n",
		report.Makespan.Round(time.Microsecond), len(report.Log.Filter("preempt", 0)))

	// The blur results are real: applied twice, back into src.
	fmt.Printf("blurred row head: %.3f %.3f %.3f %.3f\n", src.F[0], src.F[1], src.F[2], src.F[3])
}
