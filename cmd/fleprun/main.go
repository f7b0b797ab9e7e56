// Command fleprun compiles a MiniCUDA program with the FLEP compilation
// engine and executes its host functions end-to-end against the simulated
// runtime: launches are intercepted, scheduled, and preempted; small grids
// also run functionally through the interpreter.
//
// Usage:
//
//	fleprun -host run_batch:1 -host run_query:2:200 file.cu
//
// Each -host is FUNC[:PRIORITY[:DELAY_US[:async]]]. Host-function arguments
// are synthesized: pointer parameters become buffers of -n elements
// (floats initialized to i%17, ints to i%7), integer parameters receive -n,
// float parameters receive 1.0.
package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"flep/internal/cli"
	cl "flep/internal/cudalite"
	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/hostexec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	return cli.Run("fleprun", args, stdout, stderr, func(c *cli.Command) error { return fleprun(c, stdin) })
}

func fleprun(c *cli.Command, stdin io.Reader) error {
	var hosts []string
	c.Func("host", "host function to run: FUNC[:PRIORITY[:DELAY_US[:async]]] (repeatable)", func(v string) error {
		hosts = append(hosts, v)
		return nil
	})
	n := c.Int("n", 4096, "synthesized problem size (buffer elements / int args)")
	spatial := c.Bool("spatial", false, "enable spatial preemption")
	policy := c.String("policy", "hpf", "scheduling policy: "+flepruntime.PolicyList())
	traceOut := c.Bool("trace", false, "print the event trace")
	if err := c.ParseArgs(); err != nil {
		return err
	}

	src, name, err := cli.ReadSource(c.Args(), stdin)
	if err != nil {
		return err
	}
	prog, err := hostexec.Compile(src, gpu.DefaultParams())
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(c.Stderr, "fleprun: compiled %d kernel(s):\n", len(prog.Kernels))
	for _, kname := range slices.Sorted(maps.Keys(prog.Kernels)) {
		k := prog.Kernels[kname]
		fmt.Fprintf(c.Stderr, "  %-12s occupancy %d CTAs/SM, est. task cost %v, tuned L=%d\n",
			kname, k.Profile.CTAsPerSM, k.TaskCost, k.L)
	}
	if len(hosts) == 0 {
		return c.Usagef("no -host given; host functions in %s: %s", name, strings.Join(hostFuncs(prog), ", "))
	}

	procs := make([]hostexec.HostProc, 0, len(hosts))
	for _, spec := range hosts {
		proc, err := parseHost(prog, spec, *n)
		if err != nil {
			return c.Usagef("%v", err)
		}
		procs = append(procs, proc)
	}

	rep, err := hostexec.Run(prog, hostexec.Options{
		Policy: *policy, Spatial: *spatial, Trace: *traceOut,
	}, procs...)
	if err != nil {
		return err
	}

	fmt.Fprintf(c.Stdout, "%-14s %-12s %-10s %12s %12s %12s %s\n",
		"proc", "kernel", "grid", "submit", "finish", "turnaround", "functional")
	for _, r := range rep.Invocations {
		fmt.Fprintf(c.Stdout, "%-14s %-12s %-10s %12v %12v %12v %v\n",
			r.Proc, r.Kernel, fmtDim(r.Grid),
			r.SubmittedAt.Round(time.Microsecond), r.FinishedAt.Round(time.Microsecond),
			r.Turnaround().Round(time.Microsecond), r.Functional)
	}
	fmt.Fprintf(c.Stdout, "\nmakespan %v\n", rep.Makespan.Round(time.Microsecond))
	if *traceOut && rep.Log != nil {
		fmt.Fprintln(c.Stdout, "\n--- event trace ---")
		rep.Log.WriteText(c.Stdout)
	}
	return nil
}

func fmtDim(d cl.Dim3) string {
	if d.Y > 1 || d.Z > 1 {
		return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z)
	}
	return strconv.Itoa(d.X)
}

func hostFuncs(p *hostexec.Program) []string {
	var out []string
	for _, fn := range p.Original.Funcs {
		if fn.Qual == cl.QualHost {
			out = append(out, fn.Name)
		}
	}
	return out
}

// parseHost decodes FUNC[:PRIORITY[:DELAY_US[:async]]] and synthesizes the
// function's arguments.
func parseHost(p *hostexec.Program, spec string, n int) (hostexec.HostProc, error) {
	parts := strings.Split(spec, ":")
	proc := hostexec.HostProc{Func: parts[0], Priority: 1}
	if len(parts) > 1 {
		prio, err := strconv.Atoi(parts[1])
		if err != nil {
			return proc, fmt.Errorf("bad priority in %q", spec)
		}
		proc.Priority = prio
	}
	if len(parts) > 2 {
		us, err := strconv.Atoi(parts[2])
		if err != nil {
			return proc, fmt.Errorf("bad delay in %q", spec)
		}
		proc.At = time.Duration(us) * time.Microsecond
	}
	if len(parts) > 3 {
		if parts[3] != "async" {
			return proc, fmt.Errorf("bad flag %q in %q", parts[3], spec)
		}
		proc.Async = true
	}
	fn := p.Original.Func(proc.Func)
	if fn == nil || fn.Qual != cl.QualHost {
		return proc, fmt.Errorf("no host function %q (have: %s)", proc.Func, strings.Join(hostFuncs(p), ", "))
	}
	proc.Args = synthesizeArgs(fn, n)
	return proc, nil
}

// synthesizeArgs builds deterministic arguments matching the function's
// parameter types.
func synthesizeArgs(fn *cl.FuncDecl, n int) []cl.Value {
	var args []cl.Value
	for _, par := range fn.Params {
		switch {
		case par.Type.IsPointer() && par.Type.Base == cl.TFloat:
			buf := cl.NewFloatBuffer(par.Name, n)
			for i := range buf.F {
				buf.F[i] = float64(i % 17)
			}
			args = append(args, cl.PtrValue(buf, 0))
		case par.Type.IsPointer():
			buf := cl.NewIntBuffer(par.Name, n)
			for i := range buf.I {
				buf.I[i] = int64(i % 7)
			}
			args = append(args, cl.PtrValue(buf, 0))
		case par.Type.Base == cl.TFloat:
			args = append(args, cl.FloatValue(1.0))
		case par.Type.Base == cl.TBool:
			args = append(args, cl.BoolValue(true))
		default:
			args = append(args, cl.IntValue(int64(n)))
		}
	}
	return args
}
