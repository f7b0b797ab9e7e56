// Package metrics implements the multiprogram performance metrics the
// paper evaluates with: System Throughput (STP) and Average Normalized
// Turnaround Time (ANTT) as defined by Eyerman & Eeckhout, plus speedups,
// performance degradation, and GPU-share accounting for fairness runs.
//
// It owns the results vocabulary every driver reports in: KernelRun, the
// record of one finished launch (internal/core writes it), and what is
// computed from records — Tally per key, Jain's index, nearest-rank
// percentiles — so that two mechanisms are always compared by one code.
package metrics

import (
	"fmt"
	"time"
)

// KernelRun is the one record of a finished launch: what every driver —
// a scenario run, flepd, a replay, a load generator reading flepd's
// answers — knows about it once it is done, and what every figure below
// is computed from.
type KernelRun struct {
	Name string
	// Alone is the kernel's solo execution time (no co-runners) on the
	// same input; zero means there is no calibrated baseline and the run
	// counts toward no normalized figure.
	Alone time.Duration
	// Turnaround is waiting time plus execution time in the co-run.
	Turnaround time.Duration
	// Waiting is the part of Turnaround spent queued or preempted.
	Waiting     time.Duration
	Preemptions int
	// Tracked marks a deadline-bearing launch; Margin is then its deadline
	// minus its completion (negative = late).
	Margin  time.Duration
	Tracked bool
}

// NTT returns the run's normalized turnaround time T_co/T_alone (≥ 1 for
// any correct schedule modulo measurement effects).
func (r KernelRun) NTT() float64 {
	if r.Alone <= 0 {
		return 0
	}
	return r.Turnaround.Seconds() / r.Alone.Seconds()
}

// Attained is the SLO verdict: a tracked run that finished at or before
// its deadline.
func (r KernelRun) Attained() bool { return r.Tracked && r.Margin >= 0 }

// Tally accumulates finished launches under one key (a tenant, a priority
// level, a node, a whole run). The zero value is empty.
type Tally struct {
	Completed   int64 // runs added
	Preempted   int64 // of those, preempted at least once
	Preemptions int64
	// NTTSum adds up the NTT of the NTTN runs that have a baseline.
	NTTSum float64
	NTTN   int64
	// Turnaround and Waiting are sums over every run.
	Turnaround, Waiting time.Duration
	// Attained and Missed partition the tracked runs; Margin sums theirs.
	Attained, Missed int64
	Margin           time.Duration
}

// Add folds one finished launch into the tally.
func (t *Tally) Add(r KernelRun) { t.AddNTT(r, r.NTT()) }

// AddNTT is Add of a run whose NTT the caller has computed as ntt, so a
// run tallied under several keys divides once.
func (t *Tally) AddNTT(r KernelRun, ntt float64) {
	t.Completed++
	if r.Preemptions > 0 {
		t.Preempted++
		t.Preemptions += int64(r.Preemptions)
	}
	if r.Alone > 0 {
		t.NTTSum += ntt
		t.NTTN++
	}
	t.Turnaround += r.Turnaround
	t.Waiting += r.Waiting
	if r.Tracked {
		if r.Attained() {
			t.Attained++
		} else {
			t.Missed++
		}
		t.Margin += r.Margin
	}
}

// ANTT is the average normalized turnaround time over the runs that have
// a baseline: the paper's responsiveness metric (lower is better).
func (t *Tally) ANTT() float64 {
	if t.NTTN == 0 {
		return 0
	}
	return t.NTTSum / float64(t.NTTN)
}

// AttainRate is the share of tracked runs that met their deadline.
func (t *Tally) AttainRate() float64 {
	if n := t.Attained + t.Missed; n > 0 {
		return float64(t.Attained) / float64(n)
	}
	return 0
}

// MeanMargin is the tracked runs' mean margin, in whole nanoseconds.
func (t *Tally) MeanMargin() time.Duration {
	if n := t.Attained + t.Missed; n > 0 {
		return t.Margin / time.Duration(n)
	}
	return 0
}

// GraphTally accumulates model-graph instances under one key (a model
// name): the graph-level results vocabulary of flepd's models block, a
// replay summary's models rows and flepload's per-model lines. The zero
// value is empty.
type GraphTally struct {
	// Started counts graph instances; Completed those whose every stage
	// finished, Canceled those given up (a stage failed, was shed or never
	// admitted; the graph was evicted or drained away).
	Started, Completed, Canceled int64
	// Stages tallies the stages that finished, with their SLO verdicts;
	// StagesCanceled counts the ones that never will.
	Stages         Tally
	StagesCanceled int64
	// Makespan sums, over the completed graphs, first stage submission to
	// last stage completion.
	Makespan time.Duration
}

// Close folds the end of one graph instance: completed with its makespan,
// or canceled.
func (g *GraphTally) Close(completed bool, makespan time.Duration) {
	if !completed {
		g.Canceled++
		return
	}
	g.Completed++
	g.Makespan += makespan
}

// MeanMakespan is the completed graphs' mean makespan, in whole
// nanoseconds.
func (g *GraphTally) MeanMakespan() time.Duration {
	if g.Completed == 0 {
		return 0
	}
	return g.Makespan / time.Duration(g.Completed)
}

// ANTT is the average normalized turnaround time across runs.
func ANTT(runs []KernelRun) float64 {
	var t Tally
	for _, r := range runs {
		t.Add(r)
	}
	return t.ANTT()
}

// STP is system throughput: Σ T_alone/T_co (higher is better, max = #runs).
func STP(runs []KernelRun) float64 {
	sum := 0.0
	for _, r := range runs {
		if r.Turnaround > 0 {
			sum += r.Alone.Seconds() / r.Turnaround.Seconds()
		}
	}
	return sum
}

// Speedup returns base/improved: how much faster the improved turnaround is.
func Speedup(base, improved time.Duration) float64 {
	if improved <= 0 {
		return 0
	}
	return base.Seconds() / improved.Seconds()
}

// ShareSample is one point of a GPU-share time series.
type ShareSample struct {
	At    time.Duration
	Share map[string]float64 // kernel name → fraction of the window
}

// ShareAccumulator integrates per-kernel GPU occupation over time and
// emits windowed share samples (Figure 13's curves). It is a device
// observer on every sampled run, so an observation hashes nothing and,
// once each kernel has its slot, allocates nothing: busy time accrues in
// a slot per kernel name, found by string equality over the few names a
// run has, and a window's Share map is built once, when the window closes.
type ShareAccumulator struct {
	window  time.Duration
	last    time.Duration
	end     time.Duration // the open window's edge
	current int           // slot of the kernel occupying the GPU, -1 when idle
	slots   []shareSlot
	samples []ShareSample
}

// shareSlot is one kernel's occupation in the open window. in marks a
// kernel that was current at some instant of it, for 0 ns included: it
// gets a key in the window's Share map.
type shareSlot struct {
	name string
	busy time.Duration
	in   bool
}

// NewShareAccumulator samples shares every window of virtual time.
func NewShareAccumulator(window time.Duration) *ShareAccumulator {
	if window <= 0 {
		panic("metrics: non-positive share window")
	}
	return &ShareAccumulator{window: window, end: window, current: -1}
}

// Observe records that `name` (or "" for idle) occupies the GPU from `at`
// onward. Calls must have non-decreasing times.
func (s *ShareAccumulator) Observe(at time.Duration, name string) {
	if at < s.last || at >= s.end {
		s.closeWindows(at)
	}
	s.credit(at)
	s.current = s.slot(name)
}

// slot returns name's slot, adding one for a name not seen before; -1 for
// idle.
func (s *ShareAccumulator) slot(name string) int {
	if name == "" {
		return -1
	}
	for i := range s.slots {
		if s.slots[i].name == name {
			return i
		}
	}
	s.slots = append(s.slots, shareSlot{name: name})
	return len(s.slots) - 1
}

// credit adds the current kernel's occupation from the last observation
// to `at`.
func (s *ShareAccumulator) credit(at time.Duration) {
	if s.current >= 0 {
		sl := &s.slots[s.current]
		sl.busy += at - s.last
		sl.in = true
	}
	s.last = at
}

// closeWindows emits every window that ends by `at`, each with a key per
// kernel that was current in it.
func (s *ShareAccumulator) closeWindows(at time.Duration) {
	if at < s.last {
		panic(fmt.Sprintf("metrics: time went backwards: %v < %v", at, s.last))
	}
	for ; at >= s.end; s.end += s.window {
		s.credit(s.end)
		share := map[string]float64{}
		for i := range s.slots {
			if sl := &s.slots[i]; sl.in {
				share[sl.name] = sl.busy.Seconds() / s.window.Seconds()
				sl.busy, sl.in = 0, false
			}
		}
		s.samples = append(s.samples, ShareSample{At: s.end, Share: share})
	}
}

// Samples finalizes accounting up to `until` and returns the window series.
func (s *ShareAccumulator) Samples(until time.Duration) []ShareSample {
	s.closeWindows(until)
	s.credit(until)
	return s.samples
}

// MeanShare averages a kernel's share across all samples.
func MeanShare(samples []ShareSample, name string) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, smp := range samples {
		sum += smp.Share[name]
	}
	return sum / float64(len(samples))
}

// Jain returns Jain's fairness index over non-negative values: 1 when
// they are all equal, 1/n when one of n holds everything, 0 when there is
// nothing to compare.
func Jain(values []float64) float64 {
	var sum, sq float64
	for _, v := range values {
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(values)) * sq)
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of ascending-sorted
// durations by the nearest-rank method: deterministic, no interpolation.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
