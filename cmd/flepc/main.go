// Command flepc is the FLEP source-to-source compiler: it reads a MiniCUDA
// translation unit, rewrites every __global__ kernel into a preemptable
// persistent-thread form (temporal, amortized, or spatial — the paper's
// Figure 4), rewrites host launch sites into runtime-interceptor calls,
// and prints the transformed source.
//
// Usage:
//
//	flepc [-mode temporal|naive|spatial] [-kernel name] [-o out.cu] [-report] file.cu
//	flepc -bench NAME          # transform a built-in benchmark kernel
//
// With no file and no -bench, flepc reads from standard input.
package main

import (
	"fmt"
	"io"
	"os"

	"flep/internal/cli"
	"flep/internal/cudalite"
	"flep/internal/kernels"
	"flep/internal/transform"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	return cli.Run("flepc", args, stdout, stderr, func(c *cli.Command) error { return flepc(c, stdin) })
}

func flepc(c *cli.Command, stdin io.Reader) error {
	mode := c.String("mode", "spatial", "transformation mode: naive, temporal, or spatial")
	kernel := c.String("kernel", "", "transform only this kernel (default: all)")
	out := c.String("o", "", "output file (default: stdout)")
	bench := c.String("bench", "", "transform a built-in benchmark kernel (CFD, NN, PF, PL, MD, SPMV, MM, VA)")
	report := c.Bool("report", false, "print per-kernel resource usage and occupancy to stderr")
	if err := c.ParseArgs(); err != nil {
		return err
	}

	modes := map[string]transform.Mode{"naive": transform.ModeTemporalNaive, "temporal": transform.ModeTemporal, "spatial": transform.ModeSpatial}
	m, ok := modes[*mode]
	if !ok {
		return c.Usagef("unknown mode %q (want naive, temporal, or spatial)", *mode)
	}

	src, name, err := readSource(*bench, c.Args(), stdin)
	if err != nil {
		return err
	}
	prog, err := cudalite.Parse(src)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	var transformed *cudalite.Program
	if *kernel != "" {
		transformed, _, err = transform.TransformKernel(prog, *kernel, m)
		if err == nil {
			infos := map[string]*transform.KernelInfo{*kernel: {}}
			transform.TransformHost(transformed, infos)
		}
	} else {
		transformed, _, err = transform.TransformProgram(prog, m)
	}
	if err != nil {
		return err
	}

	if *report {
		printReport(c.Stderr, prog)
	}

	output := cudalite.Format(transformed)
	if *out == "" {
		_, err := io.WriteString(c.Stdout, output)
		return err
	}
	return os.WriteFile(*out, []byte(output), 0o644)
}

// readSource reads the built-in benchmark's kernel, or else the source
// cli.ReadSource finds.
func readSource(bench string, args []string, stdin io.Reader) (src, name string, err error) {
	if bench != "" {
		b, err := kernels.ByName(bench)
		if err != nil {
			return "", "", err
		}
		return b.Source, bench, nil
	}
	return cli.ReadSource(args, stdin)
}

func printReport(w io.Writer, prog *cudalite.Program) {
	limits := transform.K40()
	for _, fn := range prog.Funcs {
		if fn.Qual != cudalite.QualGlobal {
			continue
		}
		res, err := transform.EstimateResources(prog, fn)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", fn.Name, err)
			continue
		}
		occ, err := transform.ComputeOccupancy(limits, res, 256, 0)
		if err != nil {
			fmt.Fprintf(w, "%s: %v\n", fn.Name, err)
			continue
		}
		fmt.Fprintf(w, "%s: regs/thread=%d shared=%dB occupancy=%d CTAs/SM (%d active, limiter %s)\n",
			fn.Name, res.RegsPerThread, res.StaticSharedBytes, occ.CTAsPerSM, occ.ActiveCTAs, occ.Limiter)
	}
}
