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
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flep/internal/cli"
	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("flepsim", args, stdout, stderr, flepsim)
}

func flepsim(c *cli.Command) error {
	pair := c.String("pair", "", "two benchmarks A,B (A = high priority / short)")
	triplet := c.String("triplet", "", "three benchmarks A,B,C (A large, B/C small)")
	equal := c.Bool("equal", false, "equal priority (SRT scheduling) instead of priorities")
	spatial := c.Bool("spatial", false, "spatial-preemption pair (A trivial input)")
	ffs := c.Bool("ffs", false, "FFS fairness policy with closed-loop clients")
	horizon := c.Duration("horizon", 200*time.Millisecond, "FFS run horizon (positive: closed-loop clients never finish on their own)")
	traceOut := c.Bool("trace", false, "print the device/runtime event trace")
	gantt := c.Bool("gantt", false, "print kernel residency spans")
	if err := c.ParseArgs(); err != nil {
		return err
	}
	if *ffs && *horizon <= 0 {
		return c.Usagef("-horizon %v: -ffs needs a positive horizon", *horizon)
	}
	sc, opt, err := buildScenario(*pair, *triplet, *equal, *spatial, *ffs, *horizon)
	if err != nil {
		return err
	}
	opt.Trace = *traceOut || *gantt

	sys := core.NewSystem(gpu.DefaultParams())
	fmt.Fprintln(c.Stderr, "flepsim: running offline phase (scan, tune, train, profile)...")
	if err := sys.OfflineAll(); err != nil {
		return fmt.Errorf("offline: %w", err)
	}

	mps, err := sys.RunMPS(sc)
	if err != nil {
		return fmt.Errorf("MPS run: %w", err)
	}
	res, err := sys.RunFLEP(sc, opt)
	if err != nil {
		return fmt.Errorf("FLEP run: %w", err)
	}

	stdout := c.Stdout
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
	return nil
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
	opt := core.Options{Policy: "hpf", Spatial: spatial}
	if ffs {
		opt.Policy = "ffs"
		opt.MaxOverhead = 0.10
		opt.Weights = map[int]float64{2: 2, 1: 1}
		opt.ShareWindow = 10 * time.Millisecond
	}
	list, want, form := pair, 2, "-pair wants A,B"
	if triplet != "" {
		list, want, form = triplet, 3, "-triplet wants A,B,C"
	}
	if list == "" {
		return workload.Scenario{}, opt, fmt.Errorf("one of -pair or -triplet is required (benchmarks: %s)", strings.Join(kernels.Names(), ", "))
	}
	names := strings.Split(list, ",")
	if len(names) != want {
		return workload.Scenario{}, opt, errors.New(form)
	}
	b := make([]*kernels.Benchmark, want)
	for i, name := range names {
		var err error
		if b[i], err = kernels.ByName(strings.TrimSpace(name)); err != nil {
			return workload.Scenario{}, opt, err
		}
	}
	switch {
	case triplet != "":
		return workload.Triplet(b[0], b[1], b[2]), opt, nil
	case ffs:
		return workload.FairPair(b[0], b[1], horizon), opt, nil
	case spatial:
		return workload.SpatialPair(b[0], b[1]), opt, nil
	case equal:
		return workload.EqualPair(b[0], b[1]), opt, nil
	default:
		return workload.PriorityPair(b[0], b[1], 0), opt, nil
	}
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
