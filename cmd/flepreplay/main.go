// Command flepreplay records, replays, and compares FLEP scheduling
// traces offline. A trace is the admitted-launch stream of a live flepd
// run (flepd -record / flepload -record) or a synthesized multi-tenant
// mix; the replayer re-drives it through a fresh simulated fleet, and
// the what-if advisor fans it across a configuration matrix to rank
// policies, device counts, amortizing factors, and spatial splits.
//
// Usage:
//
//	flepreplay record -o mix.trace -seed 7
//	flepreplay record -o mix.trace -mix "hi:VA:small:2::40ms:60,lo:CFD:large:1::300ms:12"
//	flepreplay record -o slo.trace -mix "lc:VA:small:1::2ms:40:10ms,batch:CFD:large:2::8ms:10"
//	flepreplay replay -trace run.trace
//	flepreplay replay -trace run.trace -policy ffs -devices 2 -json
//	flepreplay whatif -trace mix.trace -policies hpf,ffs,fifo -L 0,4,16
//	flepreplay whatif -trace slo.trace -policies edf,hpf
//
// A mix tenant's trailing :DEADLINE (e.g. 10ms) marks its launches
// latency-critical with that SLO budget; the summary then reports SLO
// attainment and the what-if advisor scores it as a fourth axis (and
// folds edf into the default policy set).
//
// Determinism contract: the same trace, configuration, and seed always
// produce byte-identical JSON summaries (see DESIGN.md §10).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"flep/internal/cli"
	"flep/internal/flepruntime"
	"flep/internal/replay"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("flepreplay", args, stdout, stderr, dispatch)
}

// dispatch runs the subcommand the arguments name under its own flag set.
func dispatch(c *cli.Command) error {
	c.Usage = func() { fmt.Fprint(c.Stderr, usageText) }
	cmds := map[string]func(c *cli.Command) error{"record": cmdRecord, "replay": cmdReplay, "whatif": cmdWhatIf}
	if err := c.ParseArgs(); err != nil {
		return err
	}
	args := c.Args()
	if len(args) == 0 {
		return c.Usagef("no subcommand")
	}
	switch name := args[0]; {
	case name == "help":
		c.Usage()
		return nil
	case cmds[name] == nil:
		return c.Usagef("unknown subcommand %q", name)
	default:
		return cmds[name](cli.New("flepreplay "+name, args[1:], c.Stdout, c.Stderr))
	}
}

const usageText = `usage: flepreplay <subcommand> [flags]

subcommands:
  record   synthesize a deterministic multi-tenant trace (no daemon needed)
  replay   re-drive a trace through a fresh simulated fleet and summarize
  whatif   fan a trace across a config matrix and rank the outcomes

run "flepreplay <subcommand> -h" for per-subcommand flags
`

// cmdRecord synthesizes an open-loop multi-tenant trace. Live traces
// come from flepd -record (daemon-side, step-exact) or flepload -record
// (client-side, timed); this subcommand covers the no-daemon path.
func cmdRecord(fs *cli.Command) error {
	var (
		out  = fs.String("o", "mix.trace", "output trace path")
		mix  = fs.String("mix", "", "tenant specs CLIENT:BENCH:CLASS:PRIO[:WEIGHT]:PERIOD:COUNT[:DEADLINE], comma-separated (empty = two-tenant demo)")
		seed = fs.Int64("seed", 1, "arrival-jitter seed")
	)
	if err := fs.ParseArgs(); err != nil {
		return err
	}

	tenants, err := parseMixSpecs(*mix)
	if err != nil {
		return err
	}
	if len(tenants) == 0 {
		// The demo mix pairs a latency-critical tenant (frequent small VA
		// launches at high priority) with a batch tenant (sparse large CFD
		// launches at low priority) — the contention pattern the paper's
		// HPF-vs-FFS comparison is about.
		tenants = []replay.MixTenant{
			{Client: "latency", Bench: "VA", Class: "small", Priority: 2, Period: 2 * time.Millisecond, Count: 60},
			{Client: "batch", Bench: "CFD", Class: "large", Priority: 1, Period: 8 * time.Millisecond, Count: 15},
		}
	}
	t, err := replay.SynthesizeMix(tenants, *seed)
	if err != nil {
		return err
	}
	if err := t.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(fs.Stdout, "flepreplay: wrote %d records (%d tenants, seed %d) to %s\n",
		len(t.Records), len(tenants), *seed, *out)
	return nil
}

// parseMixSpecs parses "client:bench:class:prio[:weight]:period:count[:deadline]".
// A trailing deadline duration marks every one of the tenant's launches
// latency-critical with that SLO budget; specifying one requires the
// weight slot too (leave it empty for the default), so the positional
// grammar stays unambiguous.
func parseMixSpecs(s string) ([]replay.MixTenant, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []replay.MixTenant
	for _, spec := range strings.Split(s, ",") {
		f := strings.Split(strings.TrimSpace(spec), ":")
		if len(f) < 6 || len(f) > 8 {
			return nil, fmt.Errorf("bad mix spec %q (want CLIENT:BENCH:CLASS:PRIO[:WEIGHT]:PERIOD:COUNT[:DEADLINE])", spec)
		}
		ten := replay.MixTenant{Client: f[0], Bench: f[1], Class: f[2]}
		prio, err := strconv.Atoi(f[3])
		if err != nil {
			return nil, fmt.Errorf("bad priority in %q: %v", spec, err)
		}
		ten.Priority = prio
		rest := f[4:]
		if len(f) >= 7 {
			if f[4] != "" {
				w, err := strconv.ParseFloat(f[4], 64)
				if err != nil || w < 0 {
					return nil, fmt.Errorf("bad weight in %q", spec)
				}
				ten.Weight = w
			}
			rest = f[5:]
		}
		period, err := time.ParseDuration(rest[0])
		if err != nil {
			return nil, fmt.Errorf("bad period in %q: %v", spec, err)
		}
		ten.Period = period
		count, err := strconv.Atoi(rest[1])
		if err != nil {
			return nil, fmt.Errorf("bad count in %q: %v", spec, err)
		}
		ten.Count = count
		if len(rest) == 3 {
			d, err := time.ParseDuration(rest[2])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("bad deadline in %q (want a positive duration like 10ms)", spec)
			}
			ten.Deadline = d
		}
		out = append(out, ten)
	}
	return out, nil
}

func cmdReplay(fs *cli.Command) error {
	var (
		tracePath = fs.String("trace", "", "trace path (rotated segments path.N are merged in)")
		policy    = fs.String("policy", "", "override policy: "+flepruntime.PolicyList()+" (empty = as recorded)")
		devices   = fs.Int("devices", 0, "override device count (0 = as recorded)")
		lOverride = fs.Int("L", 0, "override the amortizing factor for every kernel (0 = tuned)")
		spa       = fs.Int("spa", 0, "spatial preemption: >0 enables with that many yielded SMs, -1 forces off, 0 = as recorded")
		maxOver   = fs.Float64("max-overhead", 0, "override the FFS overhead budget (0 = as recorded)")
		seed      = fs.Int64("seed", 1, "placement tie-break seed")
		jsonOut   = fs.Bool("json", false, "emit the summary as JSON instead of text")
		quiet     = fs.Bool("q", false, "suppress offline-phase progress")
	)
	if err := fs.ParseArgs(); err != nil {
		return err
	}
	if *tracePath == "" {
		return fs.Usagef("-trace is required")
	}

	rp, err := buildReplayer(fs, *tracePath, *quiet)
	if err != nil {
		return err
	}

	sum, err := rp.Run(replay.ReplayConfig{
		Policy: *policy, Spa: *spa, MaxOverhead: *maxOver,
		Devices: *devices, L: *lOverride, Seed: *seed,
	})
	if err != nil {
		return err
	}
	return render(fs.Stdout, *jsonOut, sum)
}

func cmdWhatIf(fs *cli.Command) error {
	var (
		tracePath = fs.String("trace", "", "trace path (rotated segments path.N are merged in)")
		policies  = fs.String("policies", "", "policies axis, comma-separated (empty = hpf,ffs,fifo, plus edf when the trace carries deadlines)")
		devices   = fs.String("devices", "", "device-count axis, comma-separated ints (empty = as recorded)")
		ls        = fs.String("L", "", "amortizing-factor axis, comma-separated ints (0 = tuned)")
		spas      = fs.String("spa", "", "spatial axis, comma-separated ints (>0 = yielded SMs, -1 = off, 0 = as recorded)")
		seed      = fs.Int64("seed", 1, "placement tie-break seed for every cell")
		jsonOut   = fs.Bool("json", false, "emit the comparison as JSON instead of text")
		quiet     = fs.Bool("q", false, "suppress offline-phase progress")
	)
	if err := fs.ParseArgs(); err != nil {
		return err
	}
	if *tracePath == "" {
		return fs.Usagef("-trace is required")
	}

	m := replay.Matrix{Seed: *seed, Policies: cli.SplitList(*policies)}
	var err error
	if m.Devices, err = parseInts(*devices); err != nil {
		return fs.Usagef("-devices: %v", err)
	}
	if m.Ls, err = parseInts(*ls); err != nil {
		return fs.Usagef("-L: %v", err)
	}
	if m.SpatialSMs, err = parseInts(*spas); err != nil {
		return fs.Usagef("-spa: %v", err)
	}
	if err := m.Validate(); err != nil {
		return fs.Usagef("%v", err)
	}

	rp, err := buildReplayer(fs, *tracePath, *quiet)
	if err != nil {
		return err
	}
	cmp, err := rp.WhatIf(m)
	if err != nil {
		return err
	}
	return render(fs.Stdout, *jsonOut, cmp)
}

// buildReplayer loads the trace (merging rotated segments) and runs the
// offline phase.
func buildReplayer(c *cli.Command, tracePath string, quiet bool) (*replay.Replayer, error) {
	t, err := replay.Load(tracePath)
	if err != nil {
		return nil, err
	}
	opts := replay.ReplayerOptions{}
	if !quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(c.Stderr, "flepreplay: "+format+"\n", args...)
		}
	}
	return replay.NewReplayer(t, opts)
}

// render writes v as indented JSON, or else as its text rendering.
func render(w io.Writer, asJSON bool, v interface{ RenderText(io.Writer) }) error {
	if !asJSON {
		v.RenderText(w)
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range cli.SplitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
