// Command flepsim runs one co-run scenario on the simulated K40 under a
// chosen scheduler and reports per-kernel turnarounds and metrics.
//
// Usage:
//
//	flepsim -pair SPMV,NN                 # priority pair under HPF vs MPS
//	flepsim -pair VA,NN -equal            # equal-priority pair (SRT)
//	flepsim -triplet VA,SPMV,MM           # three-kernel co-run
//	flepsim -pair NN,CFD -spatial         # spatial preemption pair
//	flepsim -pair MM,SPMV -ffs            # FFS fairness (closed loop)
//	flepsim ... -trace                    # dump the event trace
//	flepsim ... -gantt                    # dump kernel residency spans
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: 0 on success, 1 when the run fails, 2 with the usage
// text when the arguments cannot describe a run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flepsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pair := fs.String("pair", "", "two benchmarks A,B (A = high priority / short)")
	triplet := fs.String("triplet", "", "three benchmarks A,B,C (A large, B/C small)")
	equal := fs.Bool("equal", false, "equal priority (SRT scheduling) instead of priorities")
	spatial := fs.Bool("spatial", false, "spatial-preemption pair (A trivial input)")
	ffs := fs.Bool("ffs", false, "FFS fairness policy with closed-loop clients")
	horizon := fs.Duration("horizon", 200*time.Millisecond, "FFS run horizon (positive: closed-loop clients never finish on their own)")
	traceOut := fs.Bool("trace", false, "print the device/runtime event trace")
	gantt := fs.Bool("gantt", false, "print kernel residency spans")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp { // returned bare
			return 0
		}
		return 2
	}
	if *ffs && *horizon <= 0 {
		fmt.Fprintf(stderr, "flepsim: -horizon %v: -ffs needs a positive horizon\n", *horizon)
		fs.Usage()
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "flepsim: "+format+"\n", args...)
		return 1
	}
	sc, opt, err := buildScenario(*pair, *triplet, *equal, *spatial, *ffs, *horizon)
	if err != nil {
		return fail("%v", err)
	}
	opt.Trace = *traceOut || *gantt

	sys := core.NewSystem(gpu.DefaultParams())
	fmt.Fprintln(stderr, "flepsim: running offline phase (transform, tune, train, profile)...")
	if err := sys.OfflineAll(); err != nil {
		return fail("offline: %v", err)
	}

	mps, err := sys.RunMPS(sc)
	if err != nil {
		return fail("MPS run: %v", err)
	}
	res, err := sys.RunFLEP(sc, opt)
	if err != nil {
		return fail("FLEP run: %v", err)
	}

	fmt.Fprintf(stdout, "scenario %s (policy %s)\n\n", sc.Name, policyName(opt))
	if *ffs {
		printFFS(stdout, sc, res)
	} else {
		printComparison(stdout, sc, mps, res)
	}
	if *traceOut && res.Log != nil {
		fmt.Fprintln(stdout, "\n--- event trace ---")
		res.Log.WriteText(stdout)
	}
	if *gantt && res.Log != nil {
		fmt.Fprintln(stdout, "\n--- residency spans ---")
		for _, row := range res.Log.Gantt() {
			fmt.Fprintf(stdout, "%-6s SMs[%2d,%2d) %12v .. %12v\n", row.Kernel, row.SMLo, row.SMHi, row.Start, row.End)
		}
	}
	return 0
}

func policyName(opt core.Options) string {
	switch {
	case opt.Policy == "ffs":
		return "FFS"
	case opt.Spatial:
		return "HPF+spatial"
	default:
		return "HPF"
	}
}

func buildScenario(pair, triplet string, equal, spatial, ffs bool, horizon time.Duration) (workload.Scenario, core.Options, error) {
	var opt core.Options
	opt.Policy = "hpf"
	if ffs {
		opt.Policy = "ffs"
		opt.MaxOverhead = 0.10
		opt.Weights = map[int]float64{2: 2, 1: 1}
		opt.ShareWindow = 10 * time.Millisecond
	}
	if spatial {
		opt.Spatial = true
	}
	switch {
	case triplet != "":
		names := strings.Split(triplet, ",")
		if len(names) != 3 {
			return workload.Scenario{}, opt, fmt.Errorf("-triplet wants A,B,C")
		}
		a, b, c, err := three(names)
		if err != nil {
			return workload.Scenario{}, opt, err
		}
		return workload.Triplet(a, b, c), opt, nil
	case pair != "":
		names := strings.Split(pair, ",")
		if len(names) != 2 {
			return workload.Scenario{}, opt, fmt.Errorf("-pair wants A,B")
		}
		a, err := kernels.ByName(strings.TrimSpace(names[0]))
		if err != nil {
			return workload.Scenario{}, opt, err
		}
		b, err := kernels.ByName(strings.TrimSpace(names[1]))
		if err != nil {
			return workload.Scenario{}, opt, err
		}
		switch {
		case ffs:
			return workload.FairPair(a, b, horizon), opt, nil
		case spatial:
			return workload.SpatialPair(a, b), opt, nil
		case equal:
			return workload.EqualPair(a, b), opt, nil
		default:
			return workload.PriorityPair(a, b, 0), opt, nil
		}
	}
	return workload.Scenario{}, opt, fmt.Errorf("one of -pair or -triplet is required (benchmarks: %s)", strings.Join(kernels.Names(), ", "))
}

func three(names []string) (a, b, c *kernels.Benchmark, err error) {
	if a, err = kernels.ByName(strings.TrimSpace(names[0])); err != nil {
		return
	}
	if b, err = kernels.ByName(strings.TrimSpace(names[1])); err != nil {
		return
	}
	c, err = kernels.ByName(strings.TrimSpace(names[2]))
	return
}

func printComparison(w io.Writer, sc workload.Scenario, mps, flep *core.RunResult) {
	// Rows are scenario items: a pair may run one kernel on two inputs.
	find := func(res *core.RunResult, item int) *metrics.KernelRun {
		for i, k := range res.Items {
			if k == item {
				return &res.Results[i]
			}
		}
		return nil
	}
	fmt.Fprintf(w, "%-8s %-8s %14s %14s %9s\n", "kernel", "input", "MPS(us)", "FLEP(us)", "speedup")
	for k, item := range sc.Items {
		m, f := find(mps, k), find(flep, k)
		if m == nil || f == nil {
			continue
		}
		fmt.Fprintf(w, "%-8s %-8s %14.1f %14.1f %8.2fx\n",
			item.Bench.Name, item.Class,
			float64(m.Turnaround)/float64(time.Microsecond),
			float64(f.Turnaround)/float64(time.Microsecond),
			metrics.Speedup(m.Turnaround, f.Turnaround))
	}
	am, af := metrics.ANTT(mps.Results), metrics.ANTT(flep.Results)
	fmt.Fprintf(w, "\nANTT: MPS %.2f → FLEP %.2f (%.1fx better)\n", am, af, am/af)
}

func printFFS(w io.Writer, sc workload.Scenario, res *core.RunResult) {
	fmt.Fprintf(w, "%-8s %12s %12s\n", "kernel", "completions", "mean share")
	for _, item := range sc.Items {
		name := item.Bench.Name
		fmt.Fprintf(w, "%-8s %12d %11.1f%%\n", name, res.Completions[name],
			metrics.MeanShare(res.Shares, name)*100)
	}
	fmt.Fprintln(w, "\nshare over time:")
	for _, s := range res.Shares {
		fmt.Fprintf(w, "  t=%-12v", s.At)
		for _, item := range sc.Items {
			fmt.Fprintf(w, "  %s=%5.1f%%", item.Bench.Name, s.Share[item.Bench.Name]*100)
		}
		fmt.Fprintln(w)
	}
}
