// Priority inversion demo: a latency-critical application (think
// user-facing inference) shares the GPU with a batch application. Without
// preemption the batch kernel blocks the interactive one; FLEP's HPF
// policy preempts on arrival. The demo sweeps all four long-running
// benchmarks as the batch workload.
package main

import (
	"fmt"
	"log"
	"time"

	"flep"
)

func main() {
	sys := flep.NewSystem()
	if err := sys.OfflineAll(); err != nil {
		log.Fatal(err)
	}

	interactive, _ := flep.BenchmarkByName("SPMV") // short queries
	batch := []string{"CFD", "NN", "PF", "PL"}     // long-running producers

	fmt.Println("interactive kernel: SPMV (small input, high priority)")
	fmt.Printf("%-22s %14s %14s %10s\n", "batch co-runner", "blocked(us)", "preempted(us)", "speedup")
	for _, name := range batch {
		b, err := flep.BenchmarkByName(name)
		if err != nil {
			log.Fatal(err)
		}
		sc := flep.PriorityPair(interactive, b, 0)
		mps, err := sys.RunMPS(sc)
		if err != nil {
			log.Fatal(err)
		}
		hpf, err := sys.RunFLEP(sc, flep.Options{Policy: "hpf"})
		if err != nil {
			log.Fatal(err)
		}
		blocked := mps.ResultFor("SPMV").Turnaround
		preempted := hpf.ResultFor("SPMV").Turnaround
		fmt.Printf("%-22s %14.1f %14.1f %9.1fx\n",
			name+" (large)",
			float64(blocked)/float64(time.Microsecond),
			float64(preempted)/float64(time.Microsecond),
			blocked.Seconds()/preempted.Seconds())
	}

	fmt.Println("\nThe batch kernel pays only the preemption drain + one relaunch;")
	fmt.Println("run `flepbench -only fig8` for all 28 pairs of the paper's Figure 8.")
}
