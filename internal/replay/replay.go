package replay

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"flep/internal/core"
	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/model"
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
	// Logf, when set, receives offline-phase progress lines.
	Logf func(format string, args ...any)
}

// Replayer owns a loaded trace plus the offline artifacts needed to
// re-drive it. Building one is expensive (the full offline phase runs
// per benchmark); each Run then only reads the processed system and is
// cheap, so a what-if matrix amortizes the offline cost across all its
// cells.
type Replayer struct {
	trace *Trace
	sys   *core.System
	// shapes holds each distinct launch shape of the trace (benchmark,
	// class, task override), resolved once, and shapeOf[i] record i's.
	// tenantOf[i] is record i's client as an index into tenants, which is
	// sorted.
	shapes   []shape
	shapeOf  []int32
	tenantOf []int32
	tenants  []string
	// The orders a run walks trace.Records in, as indices (nothing modifies
	// the trace once the replayer exists): timed by (At, Seq), exact[d] the
	// admissions of recorded device d, or of none when d is 0, by Seq.
	timed []int
	exact [][]int
	// declared is each graph's stage count: its records in the trace.
	// present holds, for a record naming a prerequisite no record of its
	// graph names, the prerequisites that are in the trace.
	declared map[model.Key]int
	present  map[int][]string
	// store is the storage the next run fills. A run swaps it out, so
	// concurrent runs never share it, and stores it back once it has
	// summarized and every launch it made has finished.
	store atomic.Pointer[runStore]
}

// shape is a record's resolved launch shape or, for a record whose class
// does not parse, that error, which the run reports when it reaches the
// record.
type shape struct {
	core.Shape
	err error
}

// runStore is the storage one run fills: invs[i] the invocation record i
// is submitted in, slab the outcomes in submission order, and outcomes the
// finished ones in completion order.
type runStore struct {
	invs     []flepruntime.Invocation
	slab     []outcome
	outcomes []*outcome
}

// NewReplayer builds the offline artifacts for every benchmark the trace
// references, and resolves each distinct launch shape of the trace against
// them once, so a run's launch reads its record's resolved shape.
func NewReplayer(t *Trace, opts ReplayerOptions) (*Replayer, error) {
	if len(t.Records) == 0 {
		return nil, fmt.Errorf("replay: trace has no records")
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	rp := &Replayer{trace: t, sys: core.NewSystem(gpu.DefaultParams())}
	var benchs []*kernels.Benchmark
	benches := map[string]*kernels.Benchmark{}
	for _, name := range t.Benchmarks() {
		b, err := kernels.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("replay: trace references %s: %w", name, err)
		}
		benchs = append(benchs, b)
		benches[name] = b
	}
	start := time.Now() //flepvet:allow wallclock -- measures real offline-phase duration for progress logs only; never enters the Summary
	if err := rp.sys.Offline(benchs); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, b := range benchs {
		opts.Logf("offline %s", b.Name)
	}
	opts.Logf("offline phase: %d benchmarks in %v", len(benchs), time.Since(start).Round(time.Millisecond)) //flepvet:allow wallclock -- progress log timing only; never enters the Summary
	recs := t.Records
	rp.timed = make([]int, len(recs))
	// A graph declares as many stages as the trace has records of it; a
	// prerequisite that no record of its graph names is absent.
	type stageName struct {
		model.Key
		stage string
	}
	named := map[stageName]bool{}
	rp.declared, rp.present = map[model.Key]int{}, map[int][]string{}
	type shapeKey struct {
		bench, class  string
		tasksOverride int
	}
	shapeIndex, tenantIndex := map[shapeKey]int32{}, map[string]int32{}
	rp.shapeOf, rp.tenantOf = make([]int32, len(recs)), make([]int32, len(recs))
	for i := range recs {
		rp.timed[i] = i
		rec := &recs[i]
		key := shapeKey{rec.Bench, rec.Class, rec.TasksOverride}
		k, ok := shapeIndex[key]
		if !ok {
			k = int32(len(rp.shapes))
			shapeIndex[key] = k
			sh, err := rp.resolve(benches[rec.Bench], rec)
			if err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
			rp.shapes = append(rp.shapes, sh)
		}
		rp.shapeOf[i] = k
		if k, ok = tenantIndex[rec.Client]; !ok {
			k = int32(len(rp.tenants))
			tenantIndex[rec.Client] = k
			rp.tenants = append(rp.tenants, rec.Client)
		}
		rp.tenantOf[i] = k
		dv := max(recs[i].Device, 0)
		for dv >= len(rp.exact) {
			rp.exact = append(rp.exact, nil)
		}
		rp.exact[dv] = append(rp.exact[dv], i)
		if k := recs[i].graph(); k.Graph != "" {
			rp.declared[k]++
			named[stageName{k, recs[i].Stage}] = true
		}
	}
	for i := range recs {
		if k := recs[i].graph(); k.Graph != "" {
			in := slices.DeleteFunc(slices.Clone(recs[i].After), func(dep string) bool { return !named[stageName{k, dep}] })
			if len(in) < len(recs[i].After) {
				rp.present[i] = in
			}
		}
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
	// Renumber the tenants in name order, the order the summary lists them in.
	byName := slices.Clone(rp.tenants)
	slices.Sort(byName)
	rank := make([]int32, len(byName))
	for i, n := range byName {
		rank[tenantIndex[n]] = int32(i)
	}
	for i, k := range rp.tenantOf {
		rp.tenantOf[i] = rank[k]
	}
	rp.tenants = byName
	return rp, nil
}

// resolve resolves rec's launch shape against b's artifacts. A class the
// record does not name leaves the shape holding that error, which the run
// reports when it reaches the record.
func (rp *Replayer) resolve(b *kernels.Benchmark, rec *Record) (shape, error) {
	class, err := kernels.ParseClass(rec.Class)
	if err != nil {
		return shape{err: err}, nil
	}
	sh, err := rp.sys.Resolve(b, class, rec.TasksOverride)
	return shape{Shape: sh}, err
}

// graph is the record's graph instance, keyed as the recording daemon's
// dependency table keys it; Graph is empty for a plain launch.
func (r *Record) graph() model.Key { return model.Key{Client: r.Client, Graph: r.GraphID} }

// Trace returns the loaded trace.
func (rp *Replayer) Trace() *Trace { return rp.trace }

// ReplayConfig parameterizes one replay run. The zero value replays "as
// recorded": the header's scheduler and device count, recorded placement,
// and step-exact timing when the trace supports it.
type ReplayConfig struct {
	// Policy overrides the scheduling policy (see flepruntime.NewPolicy).
	// Empty = the trace header's policy (hpf if the header has none).
	Policy string
	// Spa is the spatial axis, the paper's spa_P (the CLI's -spa): a
	// positive value enables spatial preemption yielding that many SMs, a
	// negative one forces it off, zero keeps the recorded setting.
	Spa int
	// MaxOverhead overrides FFS's overhead budget (0 = as recorded).
	MaxOverhead float64
	// Devices overrides the device count (0 = as recorded).
	Devices int
	// L, when positive, overrides every kernel's tuned amortizing factor.
	L int
	// Seed drives the placement router's tie-break rotation. Replaying
	// the same trace with the same seed is fully deterministic.
	Seed int64
}

// effective resolves a run configuration against the trace header: the
// scheduler every stack of the run takes, and the device count.
func (rp *Replayer) effective(cfg ReplayConfig) (core.Options, int) {
	h := rp.trace.Header
	opt := h.Options
	opt.Policy = cmp.Or(cfg.Policy, opt.Policy, "hpf")
	opt.MaxOverhead = cmp.Or(cfg.MaxOverhead, opt.MaxOverhead)
	if cfg.Spa != 0 {
		opt.Spatial = cfg.Spa > 0
		opt.SpatialSMs = max(cfg.Spa, -1) // -1 also suppresses the header's width
	}
	devices := cfg.Devices
	if devices <= 0 {
		devices = max(h.Devices, 1)
	}
	return opt, devices
}

// matchesRecorded reports whether a run of the resolved scheduler on this
// many devices, with amortizing-factor override l, reproduces the recording
// one, which is what step-exact replay requires.
func (rp *Replayer) matchesRecorded(opt core.Options, devices, l int) bool {
	rec, _ := rp.effective(ReplayConfig{})
	h := rp.trace.Header
	return opt.Policy == rec.Policy && opt.Spatial == rec.Spatial && opt.SpatialSMs == rec.SpatialSMs &&
		l == 0 && devices >= len(rp.exact) && (h.Devices == 0 || devices == h.Devices)
}

// devRun is one replayed device shard: its launch stack and the
// step/bookkeeping counters the drivers need.
type devRun struct {
	*core.Stack
	id       int
	stepped  int64
	inFlight int
	drains   []time.Duration
	// launched[id-1] is the outcome of the invocation the runtime numbered
	// id: it counts the launches it accepts from 1, and only the replay
	// submits. finish is the OnFinish of them all.
	launched []*outcome
	finish   func(*flepruntime.Invocation)
}

// outcome is one replayed launch: its trace record, its tenant's index,
// the shape it was submitted as, and once it has finished, how it ran.
type outcome struct {
	rec        *Record     // in the replayer's trace
	tenant     int32       // in the replayer's tenants
	shape      *core.Shape // in the replayer's shapes
	run        metrics.KernelRun
	finishedAt time.Duration
}

// Run replays the trace under the configuration and summarizes the
// result. It is single-threaded and fully deterministic: the same trace,
// configuration, and seed always produce a byte-identical summary.
//
// Graph stages go through the dependency table the recording daemon kept
// (model.Table). A stage whose prerequisites have not finished parks
// there and is submitted right after the step that finishes the last of
// them, on its graph's device (that of its first stage); its tenant's
// records of other graphs and plain launches wait behind it, keeping the
// tenant's recorded order. Every other record is submitted at its own
// arrival.
func (rp *Replayer) Run(cfg ReplayConfig) (*Summary, error) {
	opt, devices := rp.effective(cfg)
	if devices > maxDevices {
		return nil, fmt.Errorf("replay: %d devices exceeds the limit of %d", devices, maxDevices)
	}

	mode := ModeTimed
	if rp.trace.Exact() && rp.matchesRecorded(opt, devices, cfg.L) {
		mode = ModeExact
	}

	recs := rp.trace.Records
	devs := make([]*devRun, devices)
	var div Divergence
	store := rp.store.Swap(nil)
	if store == nil {
		store = &runStore{
			invs:     make([]flepruntime.Invocation, len(recs)),
			slab:     make([]outcome, 0, len(recs)),
			outcomes: make([]*outcome, 0, len(recs)),
		}
	}
	// At most one outcome per record, in one slab; outcomes lists the
	// finished ones in completion order, the order the summary adds them up
	// in. Neither outgrows its capacity, so the pointers stay valid.
	invs, slab, outcomes := store.invs, store.slab[:0], store.outcomes[:0]
	// The table's reports make the per-model rows. woken lists the records
	// a table call released (ri) or canceled (^ri) while parked, parked
	// counts each tenant's parked stages, held the records waiting behind
	// them, and home is each graph's device. err keeps the first failure.
	models := map[string]*metrics.GraphTally{}
	var woken []int
	var err error
	parked, held, home := map[string]int{}, map[string][]int{}, map[model.Key]int{}
	deps := model.NewTable(len(recs), len(recs), func(ev model.Event[int]) {
		t := models[ev.Model]
		if t == nil {
			t = &metrics.GraphTally{}
			models[ev.Model] = t
		}
		switch ev.Kind {
		case model.GraphStarted:
			t.Started++
		case model.GraphCompleted:
			t.Close(true, ev.Makespan)
		case model.GraphCanceled:
			t.Close(false, 0)
		case model.StageReleased:
			parked[recs[ev.Value].Client]--
			woken = append(woken, ev.Value)
		case model.StageCanceled:
			if t.StagesCanceled++; ev.Reason != "" {
				div.Dependency++
				parked[recs[ev.Value].Client]--
				woken = append(woken, ^ev.Value)
			}
		}
	})
	for i := range devs {
		d := &devRun{id: i}
		d.Stack, err = rp.sys.NewStack(opt, nil, nil, func(_ *flepruntime.Invocation, latency time.Duration) {
			d.drains = append(d.drains, latency)
		})
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		d.finish = func(fv *flepruntime.Invocation) {
			o := d.launched[fv.ID-1]
			o.run = d.Finished(o.shape, fv)
			o.finishedAt = fv.FinishedAt()
			d.inFlight--
			if o.rec.GraphID != "" {
				if m, ok := deps.Done(o.rec.graph(), o.rec.Stage, fv.SubmittedAt(), o.finishedAt); ok {
					models[m].Stages.Add(o.run)
				}
			}
			outcomes = append(outcomes, o)
		}
		devs[i] = d
	}

	// submit puts record ri through the launch path the recording daemon
	// admitted it on (core.Stack.NewInvocation), as its resolved shape,
	// into the record's own invocation, on one replayed device.
	submit := func(d *devRun, ri int) error {
		rec := &recs[ri]
		sh := &rp.shapes[rp.shapeOf[ri]]
		if sh.err != nil {
			return fmt.Errorf("replay: record %d: %w", rec.Seq, sh.err)
		}
		// The recorded SLO budget is re-applied relative to the replayed
		// submission instant: the deadline is a virtual-time budget from
		// admission, not an absolute timestamp, so it survives timing
		// divergence.
		v := &invs[ri]
		if err := d.NewInvocationIn(v, core.Launch{
			Shape: sh.Shape, Priority: rec.Priority, Weight: rec.Weight,
			Budget: time.Duration(rec.DeadlineNS), Dependent: rec.GraphID != "",
			L: cfg.L,
		}); err != nil {
			return err
		}
		if rec.Te > 0 && int64(v.Te) != rec.Te {
			div.TePrediction++
		}
		v.OnFinish = d.finish
		if err := d.RT.Submit(v); err != nil {
			// The live daemon records only successful admissions, so a
			// replay rejection is itself a divergence worth counting. As
			// in the daemon, the stage's parked dependents are canceled.
			div.SubmitErrors++
			deps.Fail(rec.graph(), rec.Stage)
			return nil
		}
		slab = append(slab, outcome{rec: rec, tenant: rp.tenantOf[ri], shape: &sh.Shape})
		d.launched = append(d.launched, &slab[len(slab)-1])
		if v.ID != len(d.launched) {
			return fmt.Errorf("replay: record %d is its device's launch %d, the runtime numbered it %d", rec.Seq, len(d.launched), v.ID)
		}
		d.inFlight++
		return nil
	}

	// enter submits record ri on d unless the table parks, cancels or
	// refuses the graph stage. A prerequisite absent from the trace is left
	// out of the stage's registration; that, and a stage the table does not
	// admit, is a dependency divergence.
	enter := func(d *devRun, ri int) {
		rec := &recs[ri]
		if k := rec.graph(); k.Graph != "" {
			if _, ok := home[k]; !ok {
				home[k] = d.id
			}
			after, cut := rp.present[ri]
			if !cut {
				after = rec.After
			}
			v, _ := deps.Admit(k, model.Spec{Stage: rec.Stage, After: after, Stages: rp.declared[k], Model: cmp.Or(rec.Model, "default")}, ri)
			if cut || v > model.Parked {
				div.Dependency++
			}
			if v == model.Parked {
				parked[rec.Client]++
			}
			if v != model.Ready {
				return
			}
		}
		if err == nil {
			err = submit(d, ri)
		}
	}
	// waits reports whether record ri waits behind its tenant's parked
	// stages, keeping the tenant's order: a record of a graph the table
	// tracks never does, so no stage waits behind its own dependent.
	waits := func(ri int) bool {
		c := recs[ri].Client
		return deps.Parked() > 0 && (parked[c] > 0 || len(held[c]) > 0) && deps.Model(recs[ri].graph()) == ""
	}
	// wake submits on d, or drops, what the last table calls released or
	// canceled, then enters, in order, the records their tenants held that
	// need wait no longer.
	wake := func(d *devRun) {
		for i := 0; i < len(woken) && err == nil; i++ {
			ri := woken[i]
			if ri >= 0 {
				err = submit(d, ri)
			} else {
				ri = ^ri
			}
			c := recs[ri].Client
			rest := held[c]
			delete(held, c)
			for _, next := range rest {
				if waits(next) {
					held[c] = append(held[c], next)
				} else {
					enter(d, next)
				}
			}
		}
		woken = woken[:0]
	}
	// arrive enters record ri at its arrival unless it waits.
	arrive := func(d *devRun, ri int) {
		if waits(ri) {
			held[recs[ri].Client] = append(held[recs[ri].Client], ri)
			return
		}
		if enter(d, ri); len(woken) > 0 {
			wake(d)
		}
	}
	// settle steps d's engine through its events up to until while a stage
	// is parked, waking after each step; with nothing parked it leaves the
	// engine to RunUntil or Run.
	settle := func(d *devRun, until time.Duration) {
		for err == nil && deps.Parked() > 0 && d.Eng.StepUntil(until) {
			wake(d)
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
				for d.stepped < recs[ri].Step {
					if !d.Eng.Step() {
						div.StepShortfall++
						break
					}
					d.stepped++
					wake(d)
				}
				if arrive(d, ri); err != nil {
					return nil, err
				}
			}
		}
	case ModeTimed:
		// One global timeline: records sorted by arrival offset, each
		// submitted at its offset, a graph's stages on its device, any
		// other record on the recorded device when it exists or routed
		// least-loaded with a seeded rotating tie-break.
		route := devices > 1 && (devices != rp.trace.Header.Devices || len(rp.exact) > devices)
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, ri := range rp.timed {
			rec := &recs[ri]
			at := time.Duration(rec.At)
			target, placed := 0, false
			if rec.GraphID != "" {
				target, placed = home[rec.graph()]
			}
			if !placed && !route && rec.Device >= 0 && rec.Device < devices {
				target, placed = rec.Device, true
			}
			// The target shard advances to the arrival; every shard does
			// when the router needs fresh state, or while a stage is parked,
			// so that no release lags behind the timeline.
			all := !placed || deps.Parked() > 0
			for i, d := range devs {
				if all || i == target {
					settle(d, at)
					d.Eng.RunUntil(at)
				}
			}
			if !placed {
				// The least loaded shard, ties broken from a seeded
				// rotating start.
				start := rng.Intn(devices)
				best, bestLoad := -1, int(^uint(0)>>1)
				for k := 0; k < devices; k++ {
					i := (start + k) % devices
					if devs[i].inFlight < bestLoad {
						best, bestLoad = i, devs[i].inFlight
					}
				}
				target = best
			}
			if rec.Device >= 0 && rec.Device != target {
				div.Placement++
			}
			if arrive(devs[target], ri); err != nil {
				return nil, err
			}
		}
	}

	// Drain: run every shard to completion. A stage still parked then can
	// never be released, and what its tenant held behind it never runs.
	for _, d := range devs {
		settle(d, math.MaxInt64)
		d.Eng.Run()
	}
	if err != nil {
		return nil, err
	}
	deps.Drain("the replay ended first")
	for _, h := range held {
		div.Dependency += int64(len(h))
	}
	sum := rp.summarize(cfg, opt, mode, devs, outcomes, models, div)
	// The storage goes back only if every launch finished: an unfinished one
	// is still held by its runtime, which is also why a run that returned
	// early above dropped it.
	if len(outcomes) == len(slab) {
		store.slab, store.outcomes = slab, outcomes
		rp.store.Store(store)
	}
	return sum, nil
}
