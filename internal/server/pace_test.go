package server

import (
	"sync"
	"testing"
	"time"
)

// TestSleepAbsorbPauseReturnsRemainder pins the pace-debt contract: a
// Pause landing mid-interval parks the loop promptly, and the unserved
// part of the interval comes back to the caller instead of being
// forgotten.
func TestSleepAbsorbPauseReturnsRemainder(t *testing.T) {
	s := &Server{ctrlCh: make(chan ctrlMsg, 1)}
	st := &loopState{}

	const interval = 200 * time.Millisecond
	const pauseAt = 20 * time.Millisecond
	go func() {
		time.Sleep(pauseAt)
		s.signals.Add(1)
		s.ctrlCh <- ctrlMsg{kind: ctrlPause, ack: make(chan struct{})}
	}()
	start := time.Now()
	rem := s.sleepAbsorb(interval, st)
	served := time.Since(start)
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

// TestSleepAbsorbKeepsIntervalAcrossCtrl feeds the sleeping loop control
// messages that leave it running (redundant Resumes): the single timer
// must keep ticking toward the original deadline rather than treating any
// ctrl arrival as the end of the interval.
func TestSleepAbsorbKeepsIntervalAcrossCtrl(t *testing.T) {
	s := &Server{ctrlCh: make(chan ctrlMsg, 4)}
	st := &loopState{}

	const interval = 60 * time.Millisecond
	for i := 0; i < 4; i++ {
		s.signals.Add(1)
		s.ctrlCh <- ctrlMsg{kind: ctrlResume, ack: make(chan struct{})}
	}
	start := time.Now()
	rem := s.sleepAbsorb(interval, st)
	elapsed := time.Since(start)
	if rem != 0 {
		t.Fatalf("remainder = %v after full interval, want 0", rem)
	}
	if st.paused {
		t.Fatal("resume-only ctrl stream left the loop paused")
	}
	if elapsed < interval {
		t.Fatalf("interval truncated by ctrl messages: slept %v of %v", elapsed, interval)
	}
}

// TestSleepAbsorbStopEndsPacing: a Shutdown arriving mid-interval begins
// the drain immediately and owes nothing.
func TestSleepAbsorbStopEndsPacing(t *testing.T) {
	s := &Server{}
	stopCh := make(chan struct{})
	s.signals.Add(1)
	close(stopCh)
	st := &loopState{stop: stopCh}

	start := time.Now()
	rem := s.sleepAbsorb(time.Second, st)
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("stop did not interrupt the sleep promptly")
	}
	if rem != 0 {
		t.Fatalf("remainder = %v on shutdown, want 0", rem)
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
