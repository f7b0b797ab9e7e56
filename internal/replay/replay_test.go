package replay

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/workload"
)

// The shared two-tenant contention mix: a latency-critical tenant
// submitting small VA launches at high priority against a batch tenant
// whose large CFD launches oversubscribe the device. One replayer is
// built once (the offline phase dominates) and shared read-only.
var (
	mixOnce sync.Once
	mixTr   *Trace
	mixRp   *Replayer
	mixErr  error
)

func mixTenants() []MixTenant {
	return []MixTenant{
		{Client: "latency", Bench: "VA", Class: "small", Priority: 2, Period: 2 * time.Millisecond, Count: 60},
		{Client: "batch", Bench: "CFD", Class: "large", Priority: 1, Period: 8 * time.Millisecond, Count: 15},
	}
}

func mixReplayer(t *testing.T) (*Trace, *Replayer) {
	t.Helper()
	mixOnce.Do(func() {
		mixTr, mixErr = SynthesizeMix(mixTenants(), 7)
		if mixErr != nil {
			return
		}
		mixRp, mixErr = NewReplayer(mixTr, ReplayerOptions{})
	})
	if mixErr != nil {
		t.Fatalf("building mix replayer: %v", mixErr)
	}
	return mixTr, mixRp
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// Determinism contract: the same trace, configuration, and seed produce
// byte-identical summary JSON — across repeated runs of one replayer and
// across independently built replayers.
func TestReplaySummaryByteIdentical(t *testing.T) {
	tr, rp := mixReplayer(t)
	cfg := ReplayConfig{Policy: "hpf", Seed: 42}
	s1, err := rp.Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	s2, err := rp.Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if b1, b2 := mustJSON(t, s1), mustJSON(t, s2); !bytes.Equal(b1, b2) {
		t.Fatalf("same replayer, same config: summaries differ\n%s\n%s", b1, b2)
	}

	rp2, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatalf("second replayer: %v", err)
	}
	s3, err := rp2.Run(cfg)
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if b1, b3 := mustJSON(t, s1), mustJSON(t, s3); !bytes.Equal(b1, b3) {
		t.Fatalf("independent replayers disagree\n%s\n%s", b1, b3)
	}

	if s1.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d records", s1.Completed, len(tr.Records))
	}
	if s1.SubmitErrors != 0 {
		t.Fatalf("submit errors: %d", s1.SubmitErrors)
	}
	// And so does the synthesized trace itself.
	tr2, err := SynthesizeMix(mixTenants(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, tr.Records), mustJSON(t, tr2.Records)) {
		t.Fatal("SynthesizeMix is not deterministic for a fixed seed")
	}
}

// The acceptance scenario: on a mixed two-tenant trace the advisor must
// reproduce the paper's shape — HPF beats non-preemptive FIFO on
// high-priority ANTT, FFS beats HPF on fairness, and the report states
// the crossover.
func TestWhatIfPaperShapedOrdering(t *testing.T) {
	_, rp := mixReplayer(t)
	cmp, err := rp.WhatIf(Matrix{Seed: 7})
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	byPolicy := map[string]*Summary{}
	for i := range cmp.Cells {
		byPolicy[cmp.Cells[i].Policy] = cmp.Cells[i].Summary
	}
	hpf, ffs, fifo := byPolicy["hpf"], byPolicy["ffs"], byPolicy["fifo"]
	if hpf == nil || ffs == nil || fifo == nil {
		t.Fatalf("default matrix missing a policy: %v", cmp.Ranking)
	}
	if hpf.HighPrioANTT <= 0 || fifo.HighPrioANTT <= 0 {
		t.Fatalf("degenerate ANTT: hpf=%v fifo=%v", hpf.HighPrioANTT, fifo.HighPrioANTT)
	}
	if hpf.HighPrioANTT >= fifo.HighPrioANTT {
		t.Fatalf("HPF high-prio ANTT %.3f not better than FIFO %.3f",
			hpf.HighPrioANTT, fifo.HighPrioANTT)
	}
	if ffs.Fairness <= hpf.Fairness {
		t.Fatalf("FFS fairness %.3f not better than HPF %.3f", ffs.Fairness, hpf.Fairness)
	}
	if fifo.Preemptions != 0 {
		t.Fatalf("non-preemptive baseline preempted %d times", fifo.Preemptions)
	}
	if hpf.Preemptions == 0 {
		t.Fatal("HPF never preempted on a contended trace")
	}
	var crossover bool
	for _, f := range cmp.Findings {
		if strings.HasPrefix(f, "Crossover:") {
			crossover = true
		}
	}
	if !crossover {
		t.Fatalf("report does not state the crossover; findings: %q", cmp.Findings)
	}
	if cmp.Recommendation == "" || len(cmp.Ranking) != len(cmp.Cells) {
		t.Fatalf("incomplete report: rec=%q ranking=%v", cmp.Recommendation, cmp.Ranking)
	}

	// The full comparison is itself deterministic.
	cmp2, err := rp.WhatIf(Matrix{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, cmp), mustJSON(t, cmp2)) {
		t.Fatal("what-if comparison not byte-identical across runs")
	}
}

// The Te-divergence detector counts a recorded prediction the replay does
// not reproduce, and only that. Every record carries the Te a fresh
// offline phase predicts, so the replay reproduces them all; moving one
// record's te_ns by 1 ns is then one divergence and changes nothing else
// in the summary.
func TestTeDivergenceCountsOneChangedPrediction(t *testing.T) {
	tr, err := SynthesizeMix(mixTenants(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(gpu.DefaultParams())
	if err := sys.OfflineAll(); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		b, err := kernels.ByName(r.Bench)
		if err != nil {
			t.Fatal(err)
		}
		class, err := kernels.ParseClass(r.Class)
		if err != nil {
			t.Fatal(err)
		}
		te, err := sys.Predict(b, b.LaunchInput(class, r.TasksOverride))
		if err != nil {
			t.Fatal(err)
		}
		r.Te = int64(te)
	}
	moved := *tr
	moved.Records = slices.Clone(tr.Records)
	moved.Records[len(moved.Records)/2].Te++

	summary := func(tr *Trace) *Summary {
		rp, err := NewReplayer(tr, ReplayerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sum, err := rp.Run(ReplayConfig{Policy: "hpf", Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want, got := summary(tr), summary(&moved)
	if want.Divergence.TePrediction != 0 {
		t.Fatalf("recorded predictions replayed with %d Te divergences, want 0", want.Divergence.TePrediction)
	}
	if got.Divergence.TePrediction != 1 {
		t.Fatalf("one moved te_ns counted %d Te divergences, want 1", got.Divergence.TePrediction)
	}
	got.Divergence.TePrediction = 0
	if b1, b2 := mustJSON(t, want), mustJSON(t, got); !bytes.Equal(b1, b2) {
		t.Fatalf("moving one te_ns changed more than the Te divergence\n%s\n%s", b1, b2)
	}
}

// Timed replay with a different device count than recorded: the trace
// routes across the fleet deterministically per seed.
func TestTimedReplayAcrossMoreDevices(t *testing.T) {
	tr, rp := mixReplayer(t)
	cfg := ReplayConfig{Policy: "hpf", Devices: 2, Seed: 3}
	s1, err := rp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Mode != ModeTimed || s1.Devices != 2 {
		t.Fatalf("mode=%s devices=%d, want timed/2", s1.Mode, s1.Devices)
	}
	if s1.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d", s1.Completed, len(tr.Records))
	}
	s2, err := rp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, s1), mustJSON(t, s2)) {
		t.Fatal("multi-device timed replay not deterministic")
	}
}

func TestReplayRejectsUnknownPolicy(t *testing.T) {
	_, rp := mixReplayer(t)
	_, err := rp.Run(ReplayConfig{Policy: "lottery"})
	if err == nil || !strings.Contains(err.Error(), `unknown policy "lottery"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplayRejectsTooManyDevices(t *testing.T) {
	_, rp := mixReplayer(t)
	_, err := rp.Run(ReplayConfig{Devices: maxDevices + 1})
	if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("err = %v", err)
	}
}

// WriteFile persists a synthesized trace that loads back identically —
// the flepreplay record → replay path.
func TestTraceWriteFileRoundTrip(t *testing.T) {
	tr, _ := mixReplayer(t)
	path := filepath.Join(t.TempDir(), "mix.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Header.Source != SourceScenario || got.Header.Seed != 7 {
		t.Fatalf("header mangled: %+v", got.Header)
	}
	for i := range tr.Records {
		a, b := tr.Records[i], got.Records[i]
		a.Wall, b.Wall = 0, 0 // recorder stamps wall offsets; ignore
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("record %d: %+v vs %+v", i, a, b)
		}
	}
}

// modelTrace hand-builds a timed-mode trace carrying two instances of a
// three-stage chain model (the terminal stage deadline-bearing) plus one
// plain launch, the shape a flepload -model run records.
func modelTrace() *Trace {
	tr := &Trace{Header: Header{
		Magic: true, TraceVersion: Version, Source: SourceFlepload,
		Options: core.Options{Policy: "edf"}, Benchmarks: []string{"MM", "VA"}, Seed: 11,
	}}
	ms := int64(time.Millisecond)
	seq := int64(0)
	add := func(at int64, client, bench, graph, stage string, after []string, deadline int64) {
		seq++
		rec := Record{
			Seq: seq, At: at, Device: -1,
			Client: client, Bench: bench, Class: "small", Priority: 1,
			GraphID: graph, Stage: stage, After: after,
		}
		if graph != "" {
			rec.Model = "toy"
		}
		if deadline > 0 {
			rec.DeadlineNS, rec.SLOClass, rec.Priority = deadline, "latency", 2
		}
		tr.Records = append(tr.Records, rec)
	}
	budget := int64(2 * time.Second)
	add(0, "lc", "VA", "g1", "a", nil, 0)
	add(ms/2, "be", "VA", "", "", nil, 0)
	add(ms, "lc", "MM", "g1", "b", []string{"a"}, 0)
	add(2*ms, "lc", "VA", "g1", "c", []string{"b"}, budget)
	add(3*ms, "lc", "VA", "g2", "a", nil, 0)
	add(4*ms, "lc", "MM", "g2", "b", []string{"a"}, 0)
	add(5*ms, "lc", "VA", "g2", "c", []string{"b"}, budget)
	return tr
}

// A deadline-bearing model trace replays byte-identically — across runs
// of one replayer and across independently built replayers — with stage
// dependencies honored (zero dependency divergence) and the per-model
// rows populated.
func TestModelTraceReplayByteIdentical(t *testing.T) {
	tr := modelTrace()
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatalf("replayer: %v", err)
	}
	cfg := ReplayConfig{Policy: "edf", Seed: 11}
	s1, err := rp.Run(cfg)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	s2, err := rp.Run(cfg)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if b1, b2 := mustJSON(t, s1), mustJSON(t, s2); !bytes.Equal(b1, b2) {
		t.Fatalf("same replayer, same config: summaries differ\n%s\n%s", b1, b2)
	}
	rp2, err := NewReplayer(modelTrace(), ReplayerOptions{})
	if err != nil {
		t.Fatalf("second replayer: %v", err)
	}
	s3, err := rp2.Run(cfg)
	if err != nil {
		t.Fatalf("run 3: %v", err)
	}
	if b1, b3 := mustJSON(t, s1), mustJSON(t, s3); !bytes.Equal(b1, b3) {
		t.Fatalf("independent replayers disagree\n%s\n%s", b1, b3)
	}

	if s1.Completed != len(tr.Records) || s1.SubmitErrors != 0 {
		t.Fatalf("completed %d of %d, submit errors %d", s1.Completed, len(tr.Records), s1.SubmitErrors)
	}
	if s1.Divergence.Dependency != 0 {
		t.Fatalf("dependency divergence on an in-order trace: %d", s1.Divergence.Dependency)
	}
	if len(s1.Models) != 1 {
		t.Fatalf("models = %+v, want one row", s1.Models)
	}
	m := s1.Models[0]
	if m.Model != "toy" || m.Graphs != 2 || m.GraphsCompleted != 2 ||
		m.StagesCompleted != 6 || m.StagesCanceled != 0 {
		t.Fatalf("toy row = %+v", m)
	}
	if m.SLOAttained+m.SLOMissed != 2 {
		t.Fatalf("deadline-bearing terminal stages not tracked: %+v", m)
	}
	if m.MeanMakespanNS <= 0 {
		t.Fatalf("makespan not positive: %+v", m)
	}

	var text bytes.Buffer
	s1.RenderText(&text)
	if !strings.Contains(text.String(), "model toy") {
		t.Fatalf("text report lacks the model row:\n%s", text.String())
	}

	// The trace itself round-trips through disk and still carries the
	// graph coordinates.
	path := filepath.Join(t.TempDir(), "model.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(tr.Records, got.Records) {
		t.Fatalf("records mangled on disk round-trip")
	}
}

// Driver equivalence: replay and core.RunFLEP share one launch path
// (core.Stack), so the Figure 8 priority pair scripted as a scenario and
// hand-written as a two-record trace finishes each kernel at the same
// virtual instant, after the same wait and the same preemptions.
func TestReplayMatchesRunFLEPOnPriorityPair(t *testing.T) {
	va, _ := kernels.ByName("VA")
	mm, _ := kernels.ByName("MM")
	sc := workload.PriorityPair(va, mm, 0)
	tr := &Trace{Header: Header{
		Magic: true, TraceVersion: Version, Source: SourceScenario,
		Benchmarks: []string{"MM", "VA"},
	}}
	for i, it := range sc.Items {
		tr.Records = append(tr.Records, Record{
			Seq: int64(i + 1), At: int64(it.At), Device: -1,
			Client: it.Bench.Name, Bench: it.Bench.Name, Class: it.Class.String(), Priority: it.Priority,
		})
	}
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rp.Run(ReplayConfig{Policy: "hpf", Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mode != ModeTimed || sum.Completed != 2 {
		t.Fatalf("replay: mode=%s completed=%d, want timed/2", sum.Mode, sum.Completed)
	}
	res, err := rp.sys.Clone().RunFLEP(sc, core.Options{Policy: "hpf"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultFor("MM").Preemptions == 0 {
		t.Fatal("the pair did not preempt; the comparison would be vacuous")
	}
	for _, ten := range sum.Tenants { // one tenant per kernel, one launch each
		want := res.ResultFor(ten.Client)
		if want == nil {
			t.Fatalf("RunFLEP has no result for %s", ten.Client)
		}
		// Both drivers normalize through core, so not a bit may differ.
		if ntt := metrics.ANTT([]metrics.KernelRun{*want}); ten.MeanNTT != ntt || ten.MeanNTT < 1 {
			t.Errorf("%s: replay mean NTT %v, RunFLEP %v", ten.Client, ten.MeanNTT, ntt)
		}
		turnaround := time.Duration(ten.MeanTurnaroundNS)
		if turnaround != want.Turnaround || time.Duration(ten.MeanWaitNS) != want.Waiting || ten.Preemptions != want.Preemptions {
			t.Errorf("%s: replay turnaround=%v waiting=%v preemptions=%d, RunFLEP turnaround=%v waiting=%v preemptions=%d",
				ten.Client, turnaround, time.Duration(ten.MeanWaitNS), ten.Preemptions,
				want.Turnaround, want.Waiting, want.Preemptions)
		}
	}
	if time.Duration(sum.MakespanNS) != res.Makespan {
		t.Errorf("makespan: replay %v, RunFLEP %v", time.Duration(sum.MakespanNS), res.Makespan)
	}
}

// TestReplayAllocationBudget holds one replay of the 1,020-record what-if
// mix under FFS on one device to 0.1 allocations and 200 bytes per record
// (6.75 and 1,486 when every record was copied and sorted per run, every
// dispatch allocated its gpu.Exec and every outcome was its own object with
// its own OnFinish closure; 3.08 and 680 while every launch allocated its
// Invocation and the two device callbacks bound to it). The invocations are
// the replayer's, one per record, recycled run after run with their
// callbacks bound once. The outcomes are one slab pointing into the trace,
// found again through the invocation's ID by one OnFinish per device, and
// the order the records are walked in was sorted when the replayer was
// built. What is left is per run: the stack, the outcome slab, the drain
// samples and the summary, some seventy allocations.
func TestReplayAllocationBudget(t *testing.T) {
	tr, err := SynthesizeMix(whatIfMix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := rp.Run(ReplayConfig{Policy: "ffs", Devices: 1, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	records := float64(runs * len(tr.Records))
	allocs := float64(after.Mallocs-before.Mallocs) / records
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / records
	if len(tr.Records) != 1020 || allocs > 0.1 || bytes > 200 {
		t.Errorf("%d records replay at %.2f allocations and %.0f bytes each, ceilings 0.1 and 200 on 1,020",
			len(tr.Records), allocs, bytes)
	}
}
