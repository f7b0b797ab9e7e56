package replay

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"time"

	"flep/internal/core"
	"flep/internal/metrics"
)

// Summary is one replay run's aggregate result. Every field is computed
// from virtual-time quantities only — no wall clocks, no map-ordered
// iteration — so the same trace, configuration, and seed marshal to
// byte-identical JSON on every run (the determinism contract).
type Summary struct {
	Mode       string `json:"mode"`
	Policy     string `json:"policy"`
	Devices    int    `json:"devices"`
	Spatial    bool   `json:"spatial"`
	SpatialSMs int    `json:"spatial_sms,omitempty"`
	LOverride  int    `json:"l_override,omitempty"`
	Seed       int64  `json:"seed"`

	Records      int   `json:"records"`
	Completed    int   `json:"completed"`
	SubmitErrors int64 `json:"submit_errors"`

	// MakespanNS is the latest completion on the virtual clock;
	// ThroughputPerSec is completed launches per virtual second of it.
	MakespanNS       int64   `json:"makespan_ns"`
	ThroughputPerSec float64 `json:"throughput_per_sec"`

	// ANTT is the paper's average normalized turnaround time over every
	// completed launch with a solo baseline; HighPriority/HighPrioANTT
	// restrict it to the trace's top priority level (the latency-critical
	// tenant the paper's HPF protects).
	ANTT         float64 `json:"antt"`
	HighPriority int     `json:"high_priority"`
	HighPrioANTT float64 `json:"high_priority_antt"`

	// Fairness is Jain's index over per-tenant mean NTT: 1.0 = perfectly
	// even slowdowns, 1/n = one tenant absorbs all of it.
	Fairness float64 `json:"fairness"`

	// SLO tier, populated only when the trace carries deadline-bearing
	// records (every field is omitempty so pre-SLO traces summarize to
	// byte-identical JSON). SLOTracked = attained + missed; the margin is
	// mean virtual time from completion to deadline (negative = late).
	SLOTracked      int     `json:"slo_tracked,omitempty"`
	SLOAttained     int     `json:"slo_attained,omitempty"`
	SLOMissed       int     `json:"slo_missed,omitempty"`
	SLOAttainRate   float64 `json:"slo_attain_rate,omitempty"`
	SLOMeanMarginNS int64   `json:"slo_mean_margin_ns,omitempty"`

	// Preemption behaviour: realized preemption count and the drain
	// latency distribution (flag raise → drain complete), exact — not
	// bucketed — thanks to the runtime's OnPreemptDrained hook.
	Preemptions int   `json:"preemptions"`
	DrainP50NS  int64 `json:"drain_p50_ns"`
	DrainP90NS  int64 `json:"drain_p90_ns"`
	DrainP99NS  int64 `json:"drain_p99_ns"`

	PerPriority []PrioritySummary `json:"per_priority"`
	Tenants     []TenantSummary   `json:"tenants"`

	// Models aggregates graph-bearing records per model name, mirroring
	// the live daemon's /v1/status models block so a recorded model run
	// reconciles against its replay. Omitted for traces with no graph
	// records, keeping pre-DAG summaries byte-identical.
	Models []ModelSummary `json:"models,omitempty"`

	Divergence Divergence `json:"divergence"`
}

// PrioritySummary aggregates one priority level.
type PrioritySummary struct {
	Priority    int     `json:"priority"`
	Completed   int     `json:"completed"`
	ANTT        float64 `json:"antt"`
	Preemptions int     `json:"preemptions"`
}

// TenantSummary aggregates one recorded client.
type TenantSummary struct {
	Client           string  `json:"client"`
	Completed        int     `json:"completed"`
	Preempted        int     `json:"preempted"`
	Preemptions      int     `json:"preemptions"`
	MeanNTT          float64 `json:"mean_ntt"`
	MeanTurnaroundNS int64   `json:"mean_turnaround_ns"`
	MeanWaitNS       int64   `json:"mean_wait_ns"`
	// SLO attainment for this tenant's deadline-bearing launches
	// (omitted for pure best-effort tenants).
	SLOAttained   int     `json:"slo_attained,omitempty"`
	SLOMissed     int     `json:"slo_missed,omitempty"`
	SLOAttainRate float64 `json:"slo_attain_rate,omitempty"`
}

// ModelSummary aggregates one model's graph-bearing records: how many
// graph instances the trace carried, how many replayed to full
// completion, and the stage/SLO accounting the live daemon tracks in its
// models block.
type ModelSummary struct {
	Model string `json:"model"`
	// Graphs counts the graph instances the replay's dependency table
	// opened; GraphsCompleted those whose every recorded stage finished.
	Graphs          int `json:"graphs"`
	GraphsCompleted int `json:"graphs_completed"`
	StagesCompleted int `json:"stages_completed"`
	// StagesCanceled counts stages that failed in the replay or were
	// canceled with a prerequisite (zero on a faithful replay: the live
	// daemon only records admitted stages, and admitted stages complete).
	StagesCanceled int `json:"stages_canceled,omitempty"`
	SLOAttained    int `json:"slo_attained,omitempty"`
	SLOMissed      int `json:"slo_missed,omitempty"`
	// MeanMakespanNS is the mean virtual time from a graph's first stage
	// submission to its last stage completion, over fully-completed graphs.
	MeanMakespanNS int64 `json:"mean_makespan_ns,omitempty"`
}

// Divergence counts where the replay departed from the recorded run.
// All-zero on a faithful exact-mode replay; nonzero values localize what
// changed (retrained predictor, different placement, config drift).
type Divergence struct {
	TePrediction  int64 `json:"te_prediction"`
	StepShortfall int64 `json:"step_shortfall"`
	Placement     int64 `json:"placement"`
	// Dependency counts graph records the replay could not run as
	// recorded: one naming a prerequisite absent from the trace (it runs
	// without it), one canceled because a prerequisite failed or never
	// finished, one the dependency table refused, and a record held behind
	// a stage that never ran.
	Dependency   int64 `json:"dependency,omitempty"`
	SubmitErrors int64 `json:"submit_errors"`
}

func (rp *Replayer) summarize(cfg ReplayConfig, opt core.Options, mode string, devs []*devRun,
	outcomes []*outcome, models map[string]*metrics.GraphTally, div Divergence) *Summary {
	sum := &Summary{
		Mode: mode, Policy: opt.Policy, Devices: len(devs),
		Spatial: opt.Spatial, SpatialSMs: opt.SpatialSMs,
		LOverride: cfg.L, Seed: cfg.Seed,
		Records: len(rp.trace.Records), Completed: len(outcomes),
		SubmitErrors: div.SubmitErrors, Divergence: div,
	}

	var all metrics.Tally
	tenants := map[string]*metrics.Tally{}
	prios := map[int]*metrics.Tally{}
	var makespan time.Duration
	for _, o := range outcomes {
		if o.finishedAt > makespan {
			makespan = o.finishedAt
		}
		ta := tenants[o.rec.Client]
		if ta == nil {
			ta = &metrics.Tally{}
			tenants[o.rec.Client] = ta
		}
		pa := prios[o.rec.Priority]
		if pa == nil {
			pa = &metrics.Tally{}
			prios[o.rec.Priority] = pa
		}
		all.Add(o.run)
		ta.Add(o.run)
		pa.Add(o.run)
	}

	sum.MakespanNS = int64(makespan)
	if makespan > 0 {
		sum.ThroughputPerSec = float64(sum.Completed) / makespan.Seconds()
	}
	sum.ANTT = all.ANTT()
	sum.Preemptions = int(all.Preemptions)
	sum.SLOAttained, sum.SLOMissed = int(all.Attained), int(all.Missed)
	sum.SLOTracked = sum.SLOAttained + sum.SLOMissed
	sum.SLOAttainRate = all.AttainRate()
	sum.SLOMeanMarginNS = int64(all.MeanMargin())

	// Per-priority rows, ascending; the top level doubles as the
	// high-priority ANTT headline.
	prioKeys := make([]int, 0, len(prios))
	for p := range prios {
		prioKeys = append(prioKeys, p)
	}
	sort.Ints(prioKeys)
	for _, p := range prioKeys {
		a := prios[p]
		sum.PerPriority = append(sum.PerPriority, PrioritySummary{
			Priority: p, Completed: int(a.Completed), ANTT: a.ANTT(), Preemptions: int(a.Preemptions),
		})
	}
	if n := len(prioKeys); n > 0 {
		sum.HighPriority = prioKeys[n-1]
		sum.HighPrioANTT = sum.PerPriority[n-1].ANTT
	}

	// Per-tenant rows, by client name; Jain's fairness index over the
	// tenants that have a normalized slowdown.
	names := make([]string, 0, len(tenants))
	for n := range tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	var slowdowns []float64
	for _, n := range names {
		a := tenants[n]
		// Every tallied tenant completed at least one launch.
		sum.Tenants = append(sum.Tenants, TenantSummary{
			Client:           n,
			Completed:        int(a.Completed),
			Preempted:        int(a.Preempted),
			Preemptions:      int(a.Preemptions),
			MeanNTT:          a.ANTT(),
			MeanTurnaroundNS: int64(a.Turnaround) / a.Completed,
			MeanWaitNS:       int64(a.Waiting) / a.Completed,
			SLOAttained:      int(a.Attained),
			SLOMissed:        int(a.Missed),
			SLOAttainRate:    a.AttainRate(),
		})
		if a.NTTN > 0 {
			slowdowns = append(slowdowns, a.ANTT())
		}
	}
	sum.Fairness = metrics.Jain(slowdowns)

	sum.Models = modelRows(models)

	// Drain latencies across all shards, exact percentiles.
	var drains []time.Duration
	for _, d := range devs {
		drains = append(drains, d.drains...)
	}
	sort.Slice(drains, func(i, j int) bool { return drains[i] < drains[j] })
	sum.DrainP50NS = int64(metrics.Percentile(drains, 0.50))
	sum.DrainP90NS = int64(metrics.Percentile(drains, 0.90))
	sum.DrainP99NS = int64(metrics.Percentile(drains, 0.99))
	return sum
}

// modelRows renders the per-model tallies of a run's dependency table,
// sorted by name (nil when the trace has no graph records), as the
// recording daemon's models block renders its own.
func modelRows(models map[string]*metrics.GraphTally) []ModelSummary {
	if len(models) == 0 {
		return nil
	}
	out := make([]ModelSummary, 0, len(models))
	for _, n := range slices.Sorted(maps.Keys(models)) {
		t := models[n]
		out = append(out, ModelSummary{
			Model: n, Graphs: int(t.Started), GraphsCompleted: int(t.Completed),
			StagesCompleted: int(t.Stages.Completed), StagesCanceled: int(t.StagesCanceled),
			SLOAttained: int(t.Stages.Attained), SLOMissed: int(t.Stages.Missed),
			MeanMakespanNS: int64(t.MeanMakespan()),
		})
	}
	return out
}

// RenderText writes the summary as a human-oriented report.
func (s *Summary) RenderText(w io.Writer) {
	fmt.Fprintf(w, "replay: mode=%s policy=%s devices=%d", s.Mode, s.Policy, s.Devices)
	if s.Spatial {
		fmt.Fprintf(w, " spatial(sms=%d)", s.SpatialSMs)
	}
	if s.LOverride > 0 {
		fmt.Fprintf(w, " L=%d", s.LOverride)
	}
	fmt.Fprintf(w, " seed=%d\n", s.Seed)
	fmt.Fprintf(w, "  records=%d completed=%d submit_errors=%d makespan=%v\n",
		s.Records, s.Completed, s.SubmitErrors, time.Duration(s.MakespanNS))
	fmt.Fprintf(w, "  throughput=%.3f/s ANTT=%.4f high-prio(p%d) ANTT=%.4f fairness=%.4f\n",
		s.ThroughputPerSec, s.ANTT, s.HighPriority, s.HighPrioANTT, s.Fairness)
	fmt.Fprintf(w, "  preemptions=%d drain p50=%v p90=%v p99=%v\n",
		s.Preemptions, time.Duration(s.DrainP50NS), time.Duration(s.DrainP90NS), time.Duration(s.DrainP99NS))
	if s.SLOTracked > 0 {
		fmt.Fprintf(w, "  slo: attained=%d missed=%d rate=%.4f mean-margin=%v\n",
			s.SLOAttained, s.SLOMissed, s.SLOAttainRate, time.Duration(s.SLOMeanMarginNS))
	}
	for _, p := range s.PerPriority {
		fmt.Fprintf(w, "  priority %d: completed=%d ANTT=%.4f preemptions=%d\n",
			p.Priority, p.Completed, p.ANTT, p.Preemptions)
	}
	for _, t := range s.Tenants {
		fmt.Fprintf(w, "  tenant %-12s completed=%d preempted=%d preemptions=%d meanNTT=%.4f meanTurn=%v meanWait=%v",
			t.Client, t.Completed, t.Preempted, t.Preemptions, t.MeanNTT,
			time.Duration(t.MeanTurnaroundNS), time.Duration(t.MeanWaitNS))
		if t.SLOAttained+t.SLOMissed > 0 {
			fmt.Fprintf(w, " slo=%d/%d", t.SLOAttained, t.SLOAttained+t.SLOMissed)
		}
		fmt.Fprintf(w, "\n")
	}
	for _, m := range s.Models {
		fmt.Fprintf(w, "  model %-12s graphs=%d completed=%d stages=%d", m.Model, m.Graphs, m.GraphsCompleted, m.StagesCompleted)
		if m.StagesCanceled > 0 {
			fmt.Fprintf(w, " canceled=%d", m.StagesCanceled)
		}
		if m.SLOAttained+m.SLOMissed > 0 {
			fmt.Fprintf(w, " slo=%d/%d", m.SLOAttained, m.SLOAttained+m.SLOMissed)
		}
		if m.MeanMakespanNS > 0 {
			fmt.Fprintf(w, " makespan=%v", time.Duration(m.MeanMakespanNS))
		}
		fmt.Fprintf(w, "\n")
	}
	if d := s.Divergence; d.TePrediction+d.StepShortfall+d.Placement+d.Dependency+d.SubmitErrors > 0 {
		fmt.Fprintf(w, "  divergence: te=%d step=%d placement=%d dependency=%d submit=%d\n",
			d.TePrediction, d.StepShortfall, d.Placement, d.Dependency, d.SubmitErrors)
	}
}
