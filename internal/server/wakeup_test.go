package server

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"flep/internal/kernels"
	"flep/internal/replay"
)

// TestSteppingLoopLosesNoWakeup: the loop looks at its channels only when a
// sender has registered (queued / signals), so this pins the other half of
// that bargain — while it steps a backlog of ≥ 100k engine events, Pause,
// Resume and Shutdown are each taken within 50 ms, a launch enqueued
// mid-backlog is admitted mid-backlog, and a launch sent after Pause's ack
// stays queued until Resume.
func TestSteppingLoopLosesNoWakeup(t *testing.T) {
	const ackBudget = 50 * time.Millisecond
	cfg := Config{Policy: "ffs", MaxOverhead: 0.5, QueueDepth: 512, Benchmarks: []string{"VA", "MM"}}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := replay.NewRecorder(path, cfg.RecorderHeader(1), replay.RecorderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = rec
	s, err := NewWithSystem(testSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	enqueue := func(client, bench string, class kernels.InputClass) *launchReq {
		t.Helper()
		q := mkLaunchReq(s, client, 0)
		q.Shape = shapeOf(s, bench, class)
		if err := s.tryEnqueue(q); err != nil {
			t.Fatalf("enqueue %s: %v", client, err)
		}
		s.countEnqueued(q)
		return q
	}
	timed := func(what string, f func() error) {
		t.Helper()
		start := time.Now()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := time.Since(start); d > ackBudget {
			t.Errorf("%s acknowledged after %v with the loop stepping a backlog, want ≤ %v", what, d, ackBudget)
		}
	}

	// The backlog: short FFS epochs over long kernels, queued while paused.
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 96; i++ {
		bench := "VA"
		if i%4 == 3 {
			bench = "MM"
		}
		enqueue("backlog", bench, kernels.Large)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the backlog to be under way", func() bool { return s.Steps() > 2000 })

	mid := enqueue("mid", "VA", kernels.Trivial)
	waitFor(t, "the mid-backlog launch to be absorbed", func() bool { return len(s.submitCh) == 0 })

	timed("Pause", s.Pause)
	parkedAt := s.Steps()
	late := enqueue("late", "VA", kernels.Trivial)
	time.Sleep(2 * time.Millisecond)
	if got := s.Steps(); got != parkedAt {
		t.Fatalf("loop stepped %d events after Pause returned", got-parkedAt)
	}
	if got := len(s.submitCh); got != 1 {
		t.Fatalf("queue holds %d launches while paused, want the 1 sent after the ack", got)
	}
	timed("Resume", s.Resume)

	// Shutdown is taken when a Pause can no longer park the loop.
	start := time.Now()
	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		shutdown <- s.Shutdown(ctx)
	}()
	waitFor(t, "Shutdown to begin", s.Draining)
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	for s.paused.Load() {
		if time.Since(start) > ackBudget {
			t.Fatalf("loop still parked %v after Shutdown, want the drain begun within %v", time.Since(start), ackBudget)
		}
		runtime.Gosched()
	}
	drainBeganAt := s.Steps()

	if err := <-shutdown; err != nil {
		t.Fatal(err)
	}
	final := s.Steps()
	t.Logf("backlog %d events; drain began at step %d", final, drainBeganAt)
	if final < 100_000 {
		t.Fatalf("backlog was %d events, want ≥ 100,000 for the test to mean anything", final)
	}
	if drainBeganAt >= final {
		t.Fatalf("drain began at step %d of %d: the backlog was over before Shutdown was taken", drainBeganAt, final)
	}
	for _, q := range []*launchReq{mid, late} {
		if res := <-q.done; res.Err != "" {
			t.Fatalf("%s: %s", q.client, res.Err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]int64{}
	for _, r := range tr.Records {
		steps[r.Client] = r.Step
	}
	for _, client := range []string{"mid", "late"} {
		at, ok := steps[client]
		if !ok {
			t.Fatalf("no trace record for %q", client)
		}
		if at <= 2000 || at >= final {
			t.Errorf("%q admitted at step %d, want inside the backlog (2000, %d)", client, at, final)
		}
	}
	if steps["late"] < parkedAt {
		t.Errorf("late launch admitted at step %d, before the pause at %d", steps["late"], parkedAt)
	}
	if c := s.Counters(); c["completed"] != c["enqueued"] {
		t.Errorf("completed %d of %d enqueued", c["completed"], c["enqueued"])
	}
}
