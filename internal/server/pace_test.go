package server

import (
	"sync"
	"testing"
	"time"

	"flep/internal/kernels"
)

// TestWaitPauseFreezesRemainder pins the pace-debt contract: a Pause
// landing mid-interval parks the loop promptly, and the unserved part of
// the interval stays owed instead of being forgotten.
func TestWaitPauseFreezesRemainder(t *testing.T) {
	s := &Server{ctrlCh: make(chan ctrlMsg, 1)}
	const interval = 200 * time.Millisecond
	const pauseAt = 20 * time.Millisecond
	st := &loopState{paceLeft: interval}

	go func() {
		time.Sleep(pauseAt)
		s.signals.Add(1)
		s.ctrlCh <- ctrlMsg{kind: ctrlPause, ack: make(chan struct{})}
	}()
	start := time.Now()
	s.wait(st)
	served := time.Since(start)
	rem := st.paceLeft
	if !st.paused {
		t.Fatal("pause was not applied")
	}
	if served >= interval {
		t.Fatalf("slept the whole interval (%v) despite the pause", served)
	}
	if rem <= 0 || rem >= interval {
		t.Fatalf("remainder = %v, want within (0, %v)", rem, interval)
	}
	// served + remainder must cover the interval: losing the remainder is
	// exactly the bug that let a pause/resume storm outrun the pace floor.
	if served+rem < interval {
		t.Fatalf("served %v + remainder %v < interval %v: pace time lost", served, rem, interval)
	}
}

// TestWaitKeepsIntervalAcrossCtrl feeds the pacing loop control messages
// that leave it running (redundant Resumes): each wakes wait, but the
// interval must still be served in full rather than treating any ctrl
// arrival as its end.
func TestWaitKeepsIntervalAcrossCtrl(t *testing.T) {
	s := &Server{ctrlCh: make(chan ctrlMsg, 4)}
	const interval = 60 * time.Millisecond
	st := &loopState{paceLeft: interval}

	for i := 0; i < 4; i++ {
		s.signals.Add(1)
		s.ctrlCh <- ctrlMsg{kind: ctrlResume, ack: make(chan struct{})}
	}
	start := time.Now()
	for st.paceLeft > 0 && !st.paused {
		s.wait(st)
	}
	elapsed := time.Since(start)
	if st.paceLeft != 0 {
		t.Fatalf("remainder = %v after full interval, want 0", st.paceLeft)
	}
	if st.paused {
		t.Fatal("resume-only ctrl stream left the loop paused")
	}
	if elapsed < interval {
		t.Fatalf("interval truncated by ctrl messages: slept %v of %v", elapsed, interval)
	}
}

// TestWaitStopEndsPacing: a Shutdown arriving mid-interval begins the
// drain immediately and owes nothing.
func TestWaitStopEndsPacing(t *testing.T) {
	s := &Server{}
	stopCh := make(chan struct{})
	s.signals.Add(1)
	close(stopCh)
	st := &loopState{stop: stopCh, paceLeft: time.Second}

	start := time.Now()
	s.wait(st)
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("stop did not interrupt the sleep promptly")
	}
	if st.paceLeft != 0 {
		t.Fatalf("remainder = %v on shutdown, want 0", st.paceLeft)
	}
	if !st.draining || st.stop != nil {
		t.Fatalf("stop not latched: draining=%v stop=%v", st.draining, st.stop)
	}
}

// TestPaceFloorSurvivesPauseResumeStorm is the end-to-end regression for
// the lost pace interval: under -pace, every simulated event must cost at
// least one pace interval of wall time even when a client hammers
// pause/resume. The pre-fix loop abandoned the in-progress interval on
// every ctrl message, so a storm let virtual time run at full speed.
func TestPaceFloorSurvivesPauseResumeStorm(t *testing.T) {
	const pace = 10 * time.Millisecond
	s, ts := newTestServer(t, Config{Pace: pace})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s.Pause() != nil || s.Resume() != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	start := time.Now()
	for i := 0; i < 8; i++ {
		if code, res := launch(t, ts.URL, LaunchRequest{Benchmark: "VA", Class: "small"}); code != 200 {
			t.Fatalf("launch %d: code %d (%+v)", i, code, res)
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	steps := s.Steps()
	if steps < 8 {
		t.Fatalf("only %d simulation steps; scenario too small to measure pacing", steps)
	}
	// Each step owes one pace interval; the final interval may still be in
	// flight when the last response is delivered.
	floor := time.Duration(steps-1) * pace
	if elapsed < floor {
		t.Fatalf("virtual clock outpaced the floor: %d steps in %v (< %v)", steps, elapsed, floor)
	}
}

// TestPacedLoopAdmitsMidInterval: a paced loop owes wall time after every
// step, but a launch that arrives during the interval is admitted at once
// rather than when the interval ends.
func TestPacedLoopAdmitsMidInterval(t *testing.T) {
	const pace = 200 * time.Millisecond
	s, _ := newTestServer(t, Config{Pace: pace})
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

	big := enqueue("big", "MM", kernels.Large)
	waitFor(t, "the large launch to step", func() bool { return s.Steps() > 0 })
	n := s.Steps()
	waitFor(t, "the next step", func() bool { return s.Steps() > n })
	small := enqueue("small", "VA", kernels.Trivial)

	for _, q := range []*launchReq{big, small} {
		if res := <-q.done; res.Err != "" {
			t.Fatalf("%s: %s", q.client, res.Err)
		}
	}
	if wait := small.admitReal.Sub(small.enqueuedReal); wait > pace/4 {
		t.Fatalf("launch sent mid-interval admitted after %v, want ≤ %v of a %v interval", wait, pace/4, pace)
	} else {
		t.Logf("admitted %v into a %v interval", wait, pace)
	}
}
