package perf

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"flep/internal/experiments"
	"flep/internal/replay"
)

// The two batch workloads have no requests, so an "operation" is one
// replayed launch record (replay_whatif) or one regenerated artefact
// (paper_suite). Their work is deterministic and comes in kinds — the
// eight what-if cells, the nineteen artefacts — that a run repeats round
// after round, with a slice of the reference kernel every 25 ms between
// repetitions to read the host's speed (see reference.go). A repetition's
// wall and CPU time are brought to nominal speed, and a kind costs its
// median repetition. An operation costs its kind's cost divided by the
// kind's operations, and the latency percentiles are taken over all
// operations of a round.

const (
	// kernelPerS is what refKernel reaches per second on a quiet host: the
	// nominal speed of the batch workloads. Measured on the 2-vCPU box the
	// bounds were tuned on.
	kernelPerS = 31_000
	sliceEvery = 25 * time.Millisecond
	sliceDur   = 4 * time.Millisecond
)

// repetition is one timed execution of a kind.
type repetition struct {
	mid       time.Duration // since the clock's start
	wall, cpu time.Duration
}

// kindSamples collects one kind's repetitions.
type kindSamples struct {
	ops  int
	reps []repetition
}

// batchClock times repetitions and keeps the speed track beside them.
type batchClock struct {
	start     time.Time
	kernel    *refKernel
	track     speedTrack
	lastSlice time.Time
}

func newBatchClock() *batchClock {
	return &batchClock{start: time.Now(), kernel: newRefKernel()}
}

// slice runs the reference kernel for sliceDur and records the speed.
func (b *batchClock) slice() {
	t0 := time.Now()
	rate := b.kernel.sliceRate(sliceDur)
	b.lastSlice = time.Now()
	b.track = append(b.track, speedSample{at: t0.Sub(b.start) + b.lastSlice.Sub(t0)/2, speed: rate / kernelPerS})
}

// time runs fn once as a repetition of kind k.
func (b *batchClock) time(k *kindSamples, fn func() error) error {
	if time.Since(b.lastSlice) >= sliceEvery {
		b.slice()
	}
	c0, t0 := cpuTime(), time.Now()
	if err := fn(); err != nil {
		return err
	}
	wall := time.Since(t0)
	k.reps = append(k.reps, repetition{mid: t0.Sub(b.start) + wall/2, wall: wall, cpu: cpuTime() - c0})
	return nil
}

// medianCost is the median of reps in µs of wall and CPU time, each
// repetition multiplied by what speed says the host's speed was.
func medianCost(reps []repetition, speed func(time.Duration) float64) (wallUS, cpuUS float64) {
	var walls, cpus []float64
	for _, r := range reps {
		sp := speed(r.mid)
		walls = append(walls, float64(r.wall)/1e3*sp)
		cpus = append(cpus, float64(r.cpu)/1e3*sp)
	}
	return Median(walls), Median(cpus)
}

// setupReps is how many times a run assembles its system, the last being
// the one it keeps; setup_s is the median.
const setupReps = 9

// timeSetups runs setup setupReps times and returns the median set-up
// time in seconds, as measured: a reference slice beside something this
// short, in a process this young, reads the process's age and not the
// host's speed, and made the figure less steady. discard, if set, takes
// down what a set-up built before the next one.
func timeSetups(setup func() error, discard func()) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && discard != nil {
			discard()
		}
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return Median(secs), nil
}

// kindStats reduces the kinds' repetitions to the end-to-end figures.
func kindStats(kinds []*kindSamples, speed func(time.Duration) float64) figures {
	type opCost struct {
		us   float64 // cost of one operation of this kind
		ops  int
		rank float64 // where the kind's middle operation sits, 0..1
	}
	var wallUS, cpuUS float64
	ops := 0
	costs := make([]opCost, len(kinds))
	for i, k := range kinds {
		// A kind's first repetition is its warm-up.
		w, c := medianCost(k.reps[1:], speed)
		wallUS += w
		cpuUS += c
		ops += k.ops
		costs[i] = opCost{us: w / float64(k.ops), ops: k.ops}
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].us < costs[j].us })
	seen := 0
	for i := range costs {
		costs[i].rank = (float64(seen) + float64(costs[i].ops)/2) / float64(ops)
		seen += costs[i].ops
	}
	// The quantile over a round's operations, interpolated between the
	// kinds' middle operations so that a few large kinds do not turn it
	// into a step function.
	quantile := func(q float64) float64 {
		if q <= costs[0].rank {
			return costs[0].us
		}
		for i := 1; i < len(costs); i++ {
			if q <= costs[i].rank {
				f := (q - costs[i-1].rank) / (costs[i].rank - costs[i-1].rank)
				return costs[i-1].us + f*(costs[i].us-costs[i-1].us)
			}
		}
		return costs[len(costs)-1].us
	}
	return figures{rate: float64(ops) / (wallUS / 1e6), p50: quantile(0.50), p99: quantile(0.99), cpu: cpuUS / float64(ops)}
}

// figures closes the speed track and reports the figures at nominal
// speed, with a note of the as-measured ones and the median speed.
func (b *batchClock) figures(kinds []*kindSamples) (figures, string) {
	b.slice()
	var speeds []float64
	for _, s := range b.track {
		speeds = append(speeds, s.speed)
	}
	raw := kindStats(kinds, func(time.Duration) float64 { return 1 })
	note := fmt.Sprintf("as_measured %v host_speed %.4f (reference kernel reached, over %d/s nominal, %d slices)",
		raw, Median(speeds), kernelPerS, len(b.track))
	return kindStats(kinds, b.track.at), note
}

// runRounds repeats round until budget is spent, at least twice more
// after the first round, which is also the warm-up.
func runRounds(budget time.Duration, round func() error) (rounds int, err error) {
	start := time.Now()
	for rounds < 3 || time.Since(start) < budget {
		if err := round(); err != nil {
			return rounds, err
		}
		rounds++
	}
	return rounds, nil
}

// batchBudget is how long a batch workload measures: the whole run when
// timed, the traced pass's 7/13 share when the probes follow.
func batchBudget(total time.Duration, traced bool) time.Duration {
	if traced {
		return total * 7 / 13
	}
	return total
}

// replayMix is the what-if input: a latency-critical tenant with a 3 ms
// deadline, a best-effort tenant of long kernels, and a background of
// trivial launches, together loading one device to a little over half.
// 1,020 records keep one cell's replay to a few milliseconds, so a run
// repeats every cell some hundreds of times.
func replayMix() []replay.MixTenant {
	return []replay.MixTenant{
		{Client: "lc-spmv", Bench: "SPMV", Class: "small", Priority: 2, Period: 4 * time.Millisecond, Count: 200, Deadline: 3 * time.Millisecond},
		{Client: "be-nn", Bench: "NN", Class: "large", Priority: 1, Period: 40 * time.Millisecond, Count: 20},
		{Client: "bg-va", Bench: "VA", Class: "trivial", Priority: 1, Period: time.Millisecond, Count: 800},
	}
}

type replayCell struct {
	policy  string
	devices int
}

func replayCells() []replayCell {
	var cells []replayCell
	for _, p := range []string{"hpf", "ffs", "edf", "fifo"} {
		for _, d := range []int{1, 2} {
			cells = append(cells, replayCell{p, d})
		}
	}
	return cells
}

func runReplay(seed int64, total time.Duration, traced bool) (*Outcome, error) {
	var rp *replay.Replayer
	setupS, err := timeSetups(func() error {
		tr, err := replay.SynthesizeMix(replayMix(), seed)
		if err != nil {
			return err
		}
		rp, err = replay.NewReplayer(tr, replay.ReplayerOptions{})
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	records := len(rp.Trace().Records)
	cells := replayCells()

	// Every round replays every cell; the first round's summaries are the
	// reference every later round must reproduce byte for byte.
	kinds := make([]*kindSamples, len(cells))
	for i := range kinds {
		kinds[i] = &kindSamples{ops: records}
	}
	var reference [][]byte
	var summaries []*replay.Summary
	mismatches := 0
	var clock *batchClock
	round := func() error {
		for i, c := range cells {
			var s *replay.Summary
			err := clock.time(kinds[i], func() (err error) {
				s, err = rp.Run(replay.ReplayConfig{Policy: c.policy, Devices: c.devices, Seed: seed})
				return err
			})
			if err != nil {
				return fmt.Errorf("replay %s x%d: %w", c.policy, c.devices, err)
			}
			js, err := json.Marshal(s)
			if err != nil {
				return err
			}
			if len(reference) < len(cells) {
				reference = append(reference, js)
				summaries = append(summaries, s)
			} else if !bytes.Equal(reference[i], js) {
				mismatches++
			}
		}
		return nil
	}
	before := readProc()
	clock = newBatchClock()
	roundsRun, err := runRounds(batchBudget(total, traced), round)
	if err != nil {
		return nil, err
	}
	after := readProc()

	out := &Outcome{Workload: ReplayWhatIf, Seed: seed, Traced: traced, Values: Values{}}
	digest := sha256.New()
	var failed int64
	for i, s := range summaries {
		digest.Write(reference[i])
		d := s.Divergence
		failed += int64(s.Records-s.Completed) + d.TePrediction + d.StepShortfall + d.Placement + d.Dependency
	}
	out.Digest = fmt.Sprintf("%x", digest.Sum(nil))
	out.Attempted = int64(roundsRun * len(cells) * records)
	out.Failed = failed * int64(roundsRun)
	out.Checks = append(out.Checks,
		check("replay_byte_identical", mismatches == 0 && roundsRun >= 2,
			"%d cell replays out of %d rounds differ from the first round's Summary JSON", mismatches, roundsRun),
		check("replay_no_divergence", failed == 0, "%d records diverged, errored or did not complete per round", failed))

	cell := func(policy string, devices int) *replay.Summary {
		for i, c := range cells {
			if c.policy == policy && c.devices == devices {
				return summaries[i]
			}
		}
		return nil
	}
	v := out.Values
	at, note := clock.figures(kinds)
	at.into(v)
	out.Notes = append(out.Notes, note)
	v["replay_records_per_s"] = v["launches_per_s"]
	v["setup_s"] = setupS
	v["failed_share"] = float64(out.Failed) / float64(out.Attempted)
	v["slo_attain_rate"] = cell("edf", 1).SLOAttainRate
	v["hp_antt"] = cell("hpf", 1).HighPrioANTT
	v["ffs_fairness"] = cell("ffs", 1).Fairness
	v["drain_p99_us"] = float64(cell("hpf", 1).DrainP99NS) / 1e3
	out.Notes = append(out.Notes, fmt.Sprintf("latency_samples %d rounds of %d cells x %d records (a cell costs its median round at nominal host speed; percentiles are over a round's records)", roundsRun, len(cells), records))
	if traced {
		for k, x := range procMetrics(before, after, int64(roundsRun*len(cells)*records)) {
			v[k] = x
		}
	}
	return out, nil
}

// paperHeadlines are the values the paper reports (§6) for the figures
// whose headline the suite regenerates as a column of numbers.
var paperHeadlines = []struct {
	table, column string
	reduce        string // max, min or mean over the column
	paper         float64
}{
	{"fig1", "slowdown", "max", 32.6},
	{"fig7", "MAPE", "mean", 6.9},
	{"fig8", "speedup", "mean", 10.1},
	{"fig8", "speedup", "max", 24.2},
	{"fig8", "speedup", "min", 4.1},
	{"fig10", "improvement", "mean", 8.0},
	{"fig11", "degradation", "mean", 5.4},
}

// column parses one column of a table as numbers ("15.6x", "9.5%" and
// plain decimals all occur).
func column(t *experiments.Table, name string) ([]float64, error) {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("table %s has no column %q", t.ID, name)
	}
	var out []float64
	for _, row := range t.Rows {
		x, err := strconv.ParseFloat(strings.TrimRight(row[idx], "x%"), 64)
		if err != nil {
			return nil, fmt.Errorf("table %s column %q: %w", t.ID, name, err)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("table %s is empty", t.ID)
	}
	return out, nil
}

// paperError is the mean absolute relative error, in percent, of the
// regenerated headline values against the paper's.
func paperError(tables map[string]*experiments.Table) (float64, error) {
	sum := 0.0
	for _, h := range paperHeadlines {
		t, ok := tables[h.table]
		if !ok {
			return 0, fmt.Errorf("suite produced no table %q", h.table)
		}
		col, err := column(t, h.column)
		if err != nil {
			return 0, err
		}
		sort.Float64s(col)
		got := col[0]
		switch h.reduce {
		case "max":
			got = col[len(col)-1]
		case "mean":
			total := 0.0
			for _, x := range col {
				total += x
			}
			got = total / float64(len(col))
		}
		sum += math.Abs(got-h.paper) / h.paper
	}
	return sum / float64(len(paperHeadlines)) * 100, nil
}

// shapeChecks are the paper's who-wins claims.
func shapeChecks(tables map[string]*experiments.Table) []Check {
	var out []Check
	best, bestPair := math.Inf(-1), ""
	if t, ok := tables["fig8"]; ok {
		if col, err := column(t, "speedup"); err == nil {
			for i, x := range col {
				if x > best {
					best, bestPair = x, t.Rows[i][0]
				}
			}
		}
	}
	out = append(out, check("fig8_max_is_SPMV_NN", bestPair == "SPMV_NN",
		"the largest Fig. 8 speedup is %q (%.1fx), the paper's is SPMV_NN", bestPair, best))
	losers := []string{"no fig17 table"}
	if t, ok := tables["fig17"]; ok {
		flep, errF := column(t, "FLEP-ovh")
		slicing, errS := column(t, "slicing-ovh")
		if errF == nil && errS == nil {
			losers = nil
			for i := range flep {
				if flep[i] >= slicing[i] {
					losers = append(losers, t.Rows[i][0])
				}
			}
		}
	}
	out = append(out, check("fig17_flep_beats_slicing", len(losers) == 0,
		"FLEP's single-kernel overhead is not below slicing's for %v", losers))
	return out
}

func runSuite(seed int64, total time.Duration, traced bool) (*Outcome, error) {
	var suite *experiments.Suite
	setupS, err := timeSetups(func() (err error) {
		suite, err = experiments.NewSuite()
		return err
	}, nil)
	if err != nil {
		return nil, err
	}

	gens := experiments.Generators()
	kinds := make([]*kindSamples, len(gens))
	for i := range kinds {
		kinds[i] = &kindSamples{ops: 1}
	}
	var reference []string
	tables := map[string]*experiments.Table{}
	mismatches := 0
	var clock *batchClock
	round := func() error {
		for i, g := range gens {
			var tbl *experiments.Table
			err := clock.time(kinds[i], func() (err error) {
				tbl, err = g.Run(suite)
				return err
			})
			if err != nil {
				return fmt.Errorf("experiments: %s: %w", g.ID, err)
			}
			switch text := tbl.Format(); {
			case len(reference) < len(gens):
				reference = append(reference, text)
				tables[tbl.ID] = tbl
			case text != reference[i]:
				mismatches++
			}
		}
		return nil
	}
	before := readProc()
	clock = newBatchClock()
	roundsRun, err := runRounds(batchBudget(total, traced), round)
	if err != nil {
		return nil, err
	}
	after := readProc()
	artefacts := len(gens)

	out := &Outcome{Workload: PaperSuite, Seed: seed, Traced: traced, Values: Values{}}
	digest := sha256.New()
	for _, text := range reference {
		digest.Write([]byte(text))
	}
	out.Digest = fmt.Sprintf("%x", digest.Sum(nil))
	out.Checks = append(out.Checks, check("suite_byte_identical", mismatches == 0 && roundsRun >= 2,
		"%d artefacts out of %d regenerations differ from the first one", mismatches, roundsRun))
	shapes := shapeChecks(tables)
	out.Checks = append(out.Checks, shapes...)
	out.Attempted = int64(roundsRun * artefacts)
	for _, c := range shapes {
		if !c.OK {
			out.Failed++
		}
	}

	v := out.Values
	at, note := clock.figures(kinds)
	at.into(v)
	out.Notes = append(out.Notes, note)
	v["suite_regen_ms"] = float64(artefacts) / v["launches_per_s"] * 1e3
	v["setup_s"] = setupS
	v["failed_share"] = float64(out.Failed) / float64(out.Attempted)
	if v["paper_err_pct"], err = paperError(tables); err != nil {
		return nil, err
	}
	out.Notes = append(out.Notes, fmt.Sprintf("latency_samples %d regenerations of %d artefacts (an artefact costs its median regeneration at nominal host speed; percentiles are over the %d artefacts)", roundsRun, artefacts, artefacts))
	if traced {
		for k, x := range procMetrics(before, after, int64(roundsRun*artefacts)) {
			v[k] = x
		}
	}
	return out, nil
}
