// Quickstart: compile a CUDA-style kernel into its preemptable FLEP form,
// then run a two-kernel co-run where a short high-priority kernel preempts
// a long-running one — the paper's headline scenario.
package main

import (
	"fmt"
	"log"
	"time"

	"flep"
)

const saxpy = `
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

func main() {
	// 1. The compilation engine: one pass transforms both the GPU kernel
	// (into a persistent-thread form polling the preemption flag) and the
	// CPU launch site (into a runtime-interceptor call).
	transformed, err := flep.TransformSource(saxpy, flep.Temporal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- FLEP-transformed program ---")
	fmt.Println(transformed)

	// 2. The runtime engine: offline phase tunes each benchmark's
	// amortizing factor, trains its duration model, and profiles its
	// preemption overhead.
	sys := flep.NewSystem()
	if err := sys.OfflineAll(); err != nil {
		log.Fatal(err)
	}

	// 3. A co-run: SPMV (small input, high priority) arrives right after
	// NN (large input, low priority) occupies the GPU.
	spmv, _ := flep.BenchmarkByName("SPMV")
	nn, _ := flep.BenchmarkByName("NN")
	scenario := flep.PriorityPair(spmv, nn, 0)

	mps, err := sys.RunMPS(scenario) // the non-preemptive default
	if err != nil {
		log.Fatal(err)
	}
	preempted, err := sys.RunFLEP(scenario, flep.Options{Policy: "hpf"})
	if err != nil {
		log.Fatal(err)
	}

	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m := mps.ResultFor("SPMV").Turnaround
	f := preempted.ResultFor("SPMV").Turnaround
	fmt.Println("--- high-priority SPMV turnaround ---")
	fmt.Printf("MPS (no preemption): %10.1f us\n", us(m))
	fmt.Printf("FLEP (HPF policy):   %10.1f us\n", us(f))
	fmt.Printf("speedup:             %10.1fx (paper reports up to 24.2x for this pair)\n",
		m.Seconds()/f.Seconds())
}
