// Spatial preemption demo: a trivial high-priority kernel needs only 5 of
// the 15 SMs. Temporal preemption would stop the whole victim; spatial
// preemption yields just those SMs — the victim keeps running on the other
// ten and reclaims the five when the guest finishes. The residency trace
// makes the difference visible.
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

	guest, _ := flep.BenchmarkByName("NN")   // trivial input: 40 CTAs → 5 SMs
	victim, _ := flep.BenchmarkByName("CFD") // large input, low priority
	sc := flep.SpatialPair(guest, victim)

	baseline, err := sys.RunMPS(sc)
	if err != nil {
		log.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		spatial bool
	}{
		{"temporal (yield all 15 SMs)", false},
		{"spatial (yield 5 SMs)", true},
	} {
		res, err := sys.RunFLEP(sc, flep.Options{Policy: "hpf", Spatial: mode.spatial, Trace: true})
		if err != nil {
			log.Fatal(err)
		}
		overhead := (res.Makespan - baseline.Makespan).Seconds() / baseline.Makespan.Seconds()
		fmt.Printf("=== %s ===\n", mode.name)
		fmt.Printf("guest NN turnaround: %v, total makespan: %v, preemption overhead: %.2f%%\n",
			res.ResultFor("NN").Turnaround.Round(time.Microsecond),
			res.Makespan.Round(time.Microsecond), overhead*100)
		fmt.Println("residency spans:")
		for _, row := range res.Log.Gantt() {
			fmt.Printf("  %-4s SMs[%2d,%2d)  %12v .. %v\n",
				row.Kernel, row.SMLo, row.SMHi,
				row.Start.Round(time.Microsecond), row.End.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("Note how under spatial preemption CFD never leaves SMs [5,15),")
	fmt.Println("and expands back to [0,15) the moment NN completes.")
}
