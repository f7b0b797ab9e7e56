package replay

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"flep/internal/core"
	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/obs"
	"flep/internal/perfmodel"
)

// Replay modes.
const (
	// ModeExact re-steps each shard's engine to every record's captured
	// step index before submitting, reproducing the live run's arrival
	// interleaving precisely. Available only when the trace came from
	// flepd and the replay configuration matches the recording one.
	ModeExact = "exact"
	// ModeTimed schedules each record at its captured arrival offset in
	// virtual time. Deterministic given the trace and seed, and the only
	// option once the configuration deviates from the recorded one.
	ModeTimed = "timed"
)

// ReplayerOptions tune the offline phase a Replayer performs once and
// shares across all of its runs.
type ReplayerOptions struct {
	// Params overrides the device model (zero value = the paper's K40).
	Params gpu.Params
	// Models warm-starts the duration predictors: artifacts for these
	// kernels use the supplied (e.g. live-exported) ridge state instead
	// of the freshly trained one. See SaveModels/LoadModels.
	Models map[string]*perfmodel.Model
	// Logf, when set, receives offline-phase progress lines.
	Logf func(format string, args ...any)
}

// Replayer owns a loaded trace plus the offline artifacts needed to
// re-drive it. Building one is expensive (the full offline phase runs
// per benchmark); each Run then clones the system and is cheap, so a
// what-if matrix amortizes the offline cost across all its cells.
type Replayer struct {
	trace   *Trace
	sys     *core.System
	benches map[string]*kernels.Benchmark
	// The orders a run walks trace.Records in, as indices (nothing modifies
	// the trace once the replayer exists): timed by (At, Seq), exact[d] the
	// admissions of recorded device d, or of none when d is 0, by Seq.
	timed []int
	exact [][]int
	// invs is the invocation storage the next run submits record i in, at
	// index i. A run swaps it out, so concurrent runs never share it, and
	// stores it back once every launch it made has finished.
	invs atomic.Pointer[[]flepruntime.Invocation]
}

// NewReplayer builds the offline artifacts for every benchmark the trace
// references; the solo baselines (ANTT denominators) come with them, so
// every run's Clone starts with the table warm.
func NewReplayer(t *Trace, opts ReplayerOptions) (*Replayer, error) {
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("replay: trace has no records")
	}
	if opts.Params.Limits.NumSMs == 0 {
		opts.Params = gpu.DefaultParams()
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rp := &Replayer{
		trace:   t,
		sys:     core.NewSystem(opts.Params),
		benches: map[string]*kernels.Benchmark{},
	}
	var benchs []*kernels.Benchmark
	for _, name := range t.Benchmarks() {
		b, err := kernels.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("replay: trace references %s: %w", name, err)
		}
		benchs = append(benchs, b)
		rp.benches[name] = b
	}
	start := time.Now() //flepvet:allow wallclock -- measures real offline-phase duration for progress logs only; never enters the Summary
	if err := rp.sys.Offline(benchs); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, b := range benchs {
		if m := opts.Models[b.Name]; m != nil {
			rp.sys.Artifacts(b.Name).Model = m
			opts.Logf("offline %-5s [warm predictor]", b.Name)
		} else {
			opts.Logf("offline %s", b.Name)
		}
	}
	opts.Logf("offline phase: %d benchmarks in %v", len(benchs), time.Since(start).Round(time.Millisecond)) //flepvet:allow wallclock -- progress log timing only; never enters the Summary
	recs := t.Records
	rp.timed = make([]int, len(recs))
	for i := range recs {
		rp.timed[i] = i
		dv := max(recs[i].Device, 0)
		for dv >= len(rp.exact) {
			rp.exact = append(rp.exact, nil)
		}
		rp.exact[dv] = append(rp.exact[dv], i)
	}
	sort.SliceStable(rp.timed, func(a, b int) bool {
		ra, rb := &recs[rp.timed[a]], &recs[rp.timed[b]]
		if ra.At != rb.At {
			return ra.At < rb.At
		}
		return ra.Seq < rb.Seq
	})
	for _, order := range rp.exact {
		sort.SliceStable(order, func(a, b int) bool { return recs[order[a]].Seq < recs[order[b]].Seq })
	}
	return rp, nil
}

// Trace returns the loaded trace.
func (rp *Replayer) Trace() *Trace { return rp.trace }

// System exposes the replayer's offline artifacts (for model export).
func (rp *Replayer) System() *core.System { return rp.sys }

// ReplayConfig parameterizes one replay run. The zero value replays "as
// recorded": the header's policy and device count, recorded placement,
// and step-exact timing when the trace supports it.
type ReplayConfig struct {
	// Policy overrides the scheduling policy (see flepruntime.NewPolicy).
	// Empty = the trace header's policy (hpf if the header has none).
	Policy string
	// Spatial / SpatialSMs / MaxOverhead / Weights override the
	// corresponding recorded scheduler knobs. SpatialSMs is the paper's
	// spa_P. Nil/zero values inherit from the header.
	Spatial     *bool
	SpatialSMs  int
	MaxOverhead float64
	Weights     map[int]float64
	// Devices overrides the device count (0 = as recorded).
	Devices int
	// L, when positive, overrides every kernel's tuned amortizing factor.
	L int
	// Seed drives the placement router's tie-break rotation. Replaying
	// the same trace with the same seed is fully deterministic.
	Seed int64
	// Registry, when set, receives replay divergence counters.
	Registry *obs.Registry
}

// effective resolves a run configuration against the trace header.
func (rp *Replayer) effective(cfg ReplayConfig) ReplayConfig {
	h := rp.trace.Header
	if cfg.Policy == "" {
		cfg.Policy = h.Policy
	}
	if cfg.Policy == "" {
		cfg.Policy = "hpf"
	}
	if cfg.Spatial == nil {
		s := h.Spatial
		cfg.Spatial = &s
	}
	if cfg.SpatialSMs == 0 {
		cfg.SpatialSMs = h.SpatialSMs
	}
	if cfg.MaxOverhead == 0 {
		cfg.MaxOverhead = h.MaxOverhead
	}
	if cfg.Weights == nil && len(h.Weights) > 0 {
		cfg.Weights = map[int]float64{}
		for k, v := range h.Weights {
			if p, err := strconv.Atoi(k); err == nil {
				cfg.Weights[p] = v
			}
		}
	}
	if cfg.Devices <= 0 {
		cfg.Devices = h.Devices
	}
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	return cfg
}

// SetSpatial applies one value of the spatial axis (the CLI's -spa): a
// positive one enables spatial preemption yielding that many SMs, a
// negative one forces it off, zero keeps the recorded setting.
func (cfg *ReplayConfig) SetSpatial(spa int) {
	if spa == 0 {
		return
	}
	on := spa > 0
	cfg.Spatial = &on
	cfg.SpatialSMs = max(spa, -1) // -1 also suppresses the header's width
}

// options is the effective configuration as the launch stack takes it.
func (cfg ReplayConfig) options() core.Options {
	return core.Options{
		Policy: cfg.Policy, Spatial: *cfg.Spatial, SpatialSMs: cfg.SpatialSMs,
		MaxOverhead: cfg.MaxOverhead, Weights: cfg.Weights,
	}
}

// matchesRecorded reports whether the effective config reproduces the
// recording one, which is what step-exact replay requires.
func (rp *Replayer) matchesRecorded(cfg ReplayConfig) bool {
	h := rp.trace.Header
	policy := h.Policy
	if policy == "" {
		policy = "hpf"
	}
	return cfg.Policy == policy &&
		*cfg.Spatial == h.Spatial &&
		cfg.SpatialSMs == h.SpatialSMs &&
		cfg.L == 0 &&
		cfg.Devices >= len(rp.exact) &&
		(h.Devices == 0 || cfg.Devices == h.Devices)
}

// devRun is one replayed device shard: its launch stack and the
// step/bookkeeping counters the drivers need.
type devRun struct {
	*core.Stack
	stepped  int64
	inFlight int
	drains   []time.Duration
	// launched[id-1] is the outcome of the invocation the runtime numbered
	// id: it counts the launches it accepts from 1, and only the replay
	// submits. finish is the OnFinish of them all.
	launched []*outcome
	finish   func(*flepruntime.Invocation)
}

// outcome is one replayed launch: its trace record, what it was submitted
// as, and once it has finished, how it ran.
type outcome struct {
	rec        *Record // in the replayer's trace
	bench      *kernels.Benchmark
	class      kernels.InputClass
	run        metrics.KernelRun
	finishedAt time.Duration
}

// Run replays the trace under the configuration and summarizes the
// result. It is single-threaded and fully deterministic: the same trace,
// configuration, and seed always produce a byte-identical summary.
func (rp *Replayer) Run(cfg ReplayConfig) (*Summary, error) {
	eff := rp.effective(cfg)
	policyName := eff.Policy

	mode := ModeTimed
	if rp.trace.Exact() && rp.matchesRecorded(eff) {
		mode = ModeExact
	}

	devs := make([]*devRun, eff.Devices)
	var divTe, divStep, divPlacement, divDependency, submitErrors int64
	invs := rp.invs.Swap(nil)
	if invs == nil {
		s := make([]flepruntime.Invocation, len(rp.trace.Records))
		invs = &s
	}
	// One outcome per record, in one slab; outcomes lists the finished ones
	// in completion order, the order the summary adds them up in.
	slab := make([]outcome, 0, len(rp.trace.Records))
	outcomes := make([]*outcome, 0, len(rp.trace.Records))
	// Model-graph bookkeeping: which recorded stages have finished in the
	// replay and which shard each landed on, so timed mode can hold a
	// dependent stage until its prerequisites complete (the live daemon's
	// pending-dependency table, replayed).
	stageDone := map[stageKey]bool{}
	stageDev := map[stageKey]int{}
	for i := range devs {
		d := &devRun{}
		var err error
		d.Stack, err = rp.sys.Clone().NewStack(eff.options(), nil, nil, func(_ *flepruntime.Invocation, latency time.Duration) {
			d.drains = append(d.drains, latency)
		})
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		d.finish = func(fv *flepruntime.Invocation) {
			o := d.launched[fv.ID-1]
			o.run = d.Finished(core.Launch{Bench: o.bench, Class: o.class, TasksOverride: o.rec.TasksOverride}, fv)
			o.finishedAt = fv.FinishedAt()
			d.inFlight--
			if o.rec.GraphID != "" && o.rec.Stage != "" {
				stageDone[stageKey{o.rec.Client, o.rec.GraphID, o.rec.Stage}] = true
			}
			outcomes = append(outcomes, o)
		}
		devs[i] = d
	}

	// submit puts record ri through the launch path the recording daemon
	// admitted it on (core.Stack.NewInvocation), into the record's own
	// invocation, on one replayed device.
	submit := func(d *devRun, devIdx int, ri int) error {
		rec := &rp.trace.Records[ri]
		b := rp.benches[rec.Bench]
		if b == nil {
			return fmt.Errorf("replay: record %d references unknown benchmark %q", rec.Seq, rec.Bench)
		}
		class, err := kernels.ParseClass(rec.Class)
		if err != nil {
			return fmt.Errorf("replay: record %d: %w", rec.Seq, err)
		}
		// The recorded SLO budget is re-applied relative to the replayed
		// submission instant: the deadline is a virtual-time budget from
		// admission, not an absolute timestamp, so it survives timing
		// divergence.
		v := &(*invs)[ri]
		if err := d.NewInvocationIn(v, core.Launch{
			Bench: b, Class: class, TasksOverride: rec.TasksOverride,
			Priority: rec.Priority, Weight: rec.Weight,
			Budget: time.Duration(rec.DeadlineNS), Dependent: rec.GraphID != "",
			L: eff.L,
		}); err != nil {
			return err
		}
		if rec.Te > 0 && int64(v.Te) != rec.Te {
			divTe++
		}
		v.OnFinish = d.finish
		if err := d.RT.Submit(v); err != nil {
			// The live daemon records only successful admissions, so a
			// replay rejection is itself a divergence worth counting.
			submitErrors++
			return nil
		}
		slab = append(slab, outcome{rec: rec, bench: b, class: class})
		d.launched = append(d.launched, &slab[len(slab)-1])
		if v.ID != len(d.launched) {
			return fmt.Errorf("replay: record %d is its device's launch %d, the runtime numbered it %d", rec.Seq, len(d.launched), v.ID)
		}
		d.inFlight++
		if rec.GraphID != "" && rec.Stage != "" {
			stageDev[stageKey{rec.Client, rec.GraphID, rec.Stage}] = devIdx
		}
		return nil
	}

	// awaitPrereqs holds a dependent record until its prerequisites have
	// finished, stepping each prerequisite's shard forward (timed mode
	// only; exact mode's step indices already encode the live ordering). A
	// prerequisite that never completes — not in the trace, or stuck — is
	// a dependency divergence: the live daemon only admitted this stage
	// because its prerequisites completed there.
	awaitPrereqs := func(rec *Record) {
		for _, pre := range rec.After {
			k := stageKey{rec.Client, rec.GraphID, pre}
			if stageDone[k] {
				continue
			}
			di, ok := stageDev[k]
			if !ok {
				divDependency++
				continue
			}
			for !stageDone[k] && devs[di].Eng.Step() {
			}
			if !stageDone[k] {
				divDependency++
			}
		}
	}

	switch mode {
	case ModeExact:
		// Replay each shard independently: records in admission order,
		// engine stepped to each record's captured step index first —
		// exactly the interleaving the live loop produced.
		for i, order := range rp.exact {
			d := devs[i]
			for _, ri := range order {
				rec := &rp.trace.Records[ri]
				for d.stepped < rec.Step {
					if !d.Eng.Step() {
						divStep++
						break
					}
					d.stepped++
				}
				if err := submit(d, i, ri); err != nil {
					return nil, err
				}
			}
		}
	case ModeTimed:
		// One global timeline: records sorted by arrival offset, each
		// submitted at its offset, placed on the recorded device when it
		// exists or routed least-loaded with a seeded rotating tie-break.
		route := eff.Devices > 1 && (eff.Devices != rp.trace.Header.Devices || len(rp.exact) > eff.Devices)
		rng := rand.New(rand.NewSource(eff.Seed))
		for _, ri := range rp.timed {
			rec := &rp.trace.Records[ri]
			at := time.Duration(rec.At)
			var target int
			if !route && rec.Device >= 0 && rec.Device < eff.Devices {
				target = rec.Device
				devs[target].Eng.RunUntil(at)
			} else {
				// Advance every shard to the arrival so the router scores
				// fresh state, then pick the least loaded, ties broken from
				// a seeded rotating start.
				for _, d := range devs {
					d.Eng.RunUntil(at)
				}
				start := rng.Intn(eff.Devices)
				best, bestLoad := -1, int(^uint(0)>>1)
				for k := 0; k < eff.Devices; k++ {
					i := (start + k) % eff.Devices
					if devs[i].inFlight < bestLoad {
						best, bestLoad = i, devs[i].inFlight
					}
				}
				target = best
				if rec.Device >= 0 && rec.Device != target {
					divPlacement++
				}
			}
			if rec.GraphID != "" && len(rec.After) > 0 {
				awaitPrereqs(rec)
			}
			if err := submit(devs[target], target, ri); err != nil {
				return nil, err
			}
		}
	}

	// Drain: run every shard to completion.
	for _, d := range devs {
		d.Eng.Run()
	}
	// The storage goes back only if every launch finished: an unfinished one
	// is still held by its runtime, which is also why a run that returned
	// early above dropped it.
	if len(outcomes) == len(slab) {
		rp.invs.Store(invs)
	}

	sum := rp.summarize(eff, policyName, mode, devs, outcomes, divTe, divStep, divPlacement, divDependency, submitErrors)
	if eff.Registry != nil {
		reg := eff.Registry
		reg.Counter("flep_replay_records_total", "Trace records replayed").Add(int64(len(rp.trace.Records)))
		reg.Counter("flep_replay_completed_total", "Replayed launches that completed").Add(int64(sum.Completed))
		div := func(kind string) *obs.Counter {
			return reg.Counter("flep_replay_divergence_total",
				"Replay divergences from the recorded run", "kind", kind) //flepvet:allow metriclabel -- kind is one of five compile-time literals below; cardinality is fixed
		}
		div("te_prediction").Add(divTe)
		div("step_shortfall").Add(divStep)
		div("placement").Add(divPlacement)
		div("dependency").Add(divDependency)
		div("submit_error").Add(submitErrors)
	}
	return sum, nil
}

// stageKey identifies one graph stage across the replay: the recording
// daemon keys its dependency table by (client, graph), so the replayed
// identity must too.
type stageKey struct{ client, graph, stage string }
