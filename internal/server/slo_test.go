package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flep/internal/metrics"
)

func TestSLOAttainmentEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Policy: "edf"})

	// VA/small solo is ~720µs: a 100ms budget attains comfortably.
	code, res := launch(t, ts.URL, LaunchRequest{
		Client: "lc", Benchmark: "VA", Class: "small", DeadlineMS: 100,
	})
	if code != http.StatusOK {
		t.Fatalf("code = %d (%+v)", code, res)
	}
	if res.SLO != "attained" || res.SLOMarginNS <= 0 || res.DeadlineVirtualNS == 0 {
		t.Fatalf("SLO fields: %+v", res)
	}
	if res.DeadlineVirtualNS-res.FinishedVirtualNS != res.SLOMarginNS {
		t.Fatalf("margin does not reconcile: %+v", res)
	}

	// VA/large runs ~30ms solo: a 1ms budget must be missed (and the
	// cost-aware EDF rule must not have drained anything for it).
	code, res = launch(t, ts.URL, LaunchRequest{
		Client: "lc", Benchmark: "VA", Class: "large", DeadlineMS: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("code = %d (%+v)", code, res)
	}
	if res.SLO != "missed" || res.SLOMarginNS >= 0 {
		t.Fatalf("SLO fields: %+v", res)
	}

	// A best-effort launch carries no SLO fields.
	code, res = launch(t, ts.URL, LaunchRequest{Client: "be", Benchmark: "VA", Class: "small"})
	if code != http.StatusOK || res.SLO != "" || res.DeadlineVirtualNS != 0 {
		t.Fatalf("best-effort result carries SLO fields: %+v", res)
	}

	// Status, metrics, and sessions must all tell the same story.
	st := getStatus(t, ts.URL)
	if st.SLO.Attained != 1 || st.SLO.Missed != 1 || st.SLO.AttainRate != 0.5 {
		t.Fatalf("status SLO: %+v", st.SLO)
	}
	if st.Counters.SLOAttained != 1 || st.Counters.SLOMissed != 1 {
		t.Fatalf("status counters: %+v", st.Counters)
	}
	if got := s.met.SLOAttained.Value(); got != st.Counters.SLOAttained {
		t.Fatalf("flep_slo_attained_total = %d, status says %d", got, st.Counters.SLOAttained)
	}
	if got := s.met.SLOMissed.Value(); got != st.Counters.SLOMissed {
		t.Fatalf("flep_slo_missed_total = %d, status says %d", got, st.Counters.SLOMissed)
	}
	if n := s.met.SLOMargin.Count(); n != 2 {
		t.Fatalf("flep_slo_margin_seconds count = %d, want 2", n)
	}
	for _, snap := range s.SessionSnapshots() {
		switch snap.ID {
		case "lc":
			if snap.SLOAttained != 1 || snap.SLOMissed != 1 {
				t.Fatalf("lc session SLO: %+v", snap)
			}
		case "be":
			if snap.SLOAttained != 0 || snap.SLOMissed != 0 {
				t.Fatalf("be session SLO: %+v", snap)
			}
		}
	}
}

// A client tallies flepd's answers through LaunchResult.Run, which has to
// recover the solo baseline from the NTT on the wire — exactly, so that
// the client's ANTT is the daemon's bit for bit.
func TestLaunchResultRunRecoversTheRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		alone := time.Duration(1 + rng.Int63n(int64(10*time.Second)))
		want := metrics.KernelRun{
			Name: "VA", Alone: alone, Turnaround: alone + time.Duration(rng.Int63n(int64(time.Minute))),
			Waiting: time.Duration(rng.Int63n(int64(alone))), Preemptions: rng.Intn(3),
		}
		res := LaunchResult{
			Kernel: "VA", TurnaroundNS: int64(want.Turnaround), WaitingNS: int64(want.Waiting),
			NTT: want.NTT(), Preemptions: want.Preemptions,
		}
		if i%2 == 0 {
			want.Tracked, want.Margin = true, time.Duration(rng.Int63n(2000)-1000)
			res.SLO, res.SLOMarginNS = "missed", int64(want.Margin)
			if want.Attained() {
				res.SLO = "attained"
			}
		}
		if got := res.Run(); got != want || got.NTT() != res.NTT {
			t.Fatalf("result %+v\n runs as %+v\n want    %+v", res, got, want)
		}
	}
	if got := (&LaunchResult{TurnaroundNS: 500}).Run(); got.Alone != 0 || got.Tracked {
		t.Fatalf("a result with no NTT and no verdict runs as %+v", got)
	}
}

func TestSLOValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []LaunchRequest{
		{Benchmark: "VA", DeadlineMS: -5},
		{Benchmark: "VA", SLOClass: "latency"},                    // latency requires a deadline
		{Benchmark: "VA", SLOClass: "best_effort", DeadlineMS: 3}, // BE forbids one
		{Benchmark: "VA", SLOClass: "premium"},
	} {
		code, _ := launch(t, ts.URL, req)
		if code != http.StatusBadRequest {
			t.Fatalf("req %+v: code = %d, want 400", req, code)
		}
	}
	st := getStatus(t, ts.URL)
	if st.Counters.RejectedInvalid != 4 || st.Counters.Enqueued != 0 {
		t.Fatalf("counters: %+v", st.Counters)
	}
}

func TestBestEffortShedProtectsDeadlines(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8})
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	results := make(chan LaunchResult, 16)
	post := func(req LaunchRequest) int {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	accepted := 0
	goLaunch := func(req LaunchRequest) {
		go func() {
			_, res := launch(t, ts.URL, req)
			results <- res
		}()
		accepted++
	}

	// One deadline-bearing launch makes LC work outstanding.
	goLaunch(LaunchRequest{Client: "lc", Benchmark: "VA", Class: "trivial", DeadlineMS: 60000})
	waitFor(t, "LC launch queued", func() bool { return getStatus(t, ts.URL).QueueLen == 1 })

	// Fill the queue with best-effort work up to the shed limit.
	for getStatus(t, ts.URL).QueueLen < s.beLimit {
		goLaunch(LaunchRequest{Client: "be", Benchmark: "VA", Class: "trivial"})
		waitFor(t, "BE launch queued", func() bool { return getStatus(t, ts.URL).QueueLen == accepted })
	}

	// The next best-effort launch is shed with 429 even though the queue
	// still has room...
	if code := post(LaunchRequest{Client: "be", Benchmark: "VA", Class: "trivial"}); code != http.StatusTooManyRequests {
		t.Fatalf("BE past shed limit: code = %d, want 429", code)
	}
	// ...and that room is exactly what keeps deadline work admissible.
	goLaunch(LaunchRequest{Client: "lc", Benchmark: "VA", Class: "trivial", DeadlineMS: 60000})
	waitFor(t, "second LC queued", func() bool { return getStatus(t, ts.URL).QueueLen == accepted })

	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < accepted; i++ {
		if res := <-results; res.Err != "" {
			t.Fatalf("accepted launch failed: %+v", res)
		}
	}
	st := getStatus(t, ts.URL)
	if st.Counters.RejectedShed != 1 || st.SLO.BestEffortShed != 1 {
		t.Fatalf("shed accounting: counters=%+v slo=%+v", st.Counters, st.SLO)
	}
	if got := s.met.launches[outRejectedShed].Value(); got != 1 {
		t.Fatalf("rejected_best_effort_shed metric = %d, want 1", got)
	}
	// With no LC outstanding, best-effort admission is back to the full
	// queue: the same launch that was just shed now completes.
	if code := post(LaunchRequest{Client: "be", Benchmark: "VA", Class: "trivial"}); code != http.StatusOK {
		t.Fatalf("BE after LC drained: code = %d, want 200", code)
	}
}

func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	// Unit check on the estimator: deeper queues and slower drains wait
	// longer, clamped to [1, 60].
	perLaunch := 500 * time.Millisecond
	if got := retryAfterFor(1, perLaunch, 1); got != 1 {
		t.Fatalf("retryAfterFor(1) = %d, want 1", got)
	}
	if got := retryAfterFor(9, perLaunch, 1); got != 5 {
		t.Fatalf("retryAfterFor(9) = %d, want 5", got)
	}
	if got := retryAfterFor(1000, perLaunch, 1); got != 60 {
		t.Fatalf("retryAfterFor(1000) = %d, want clamp 60", got)
	}
	if got := retryAfterFor(50, 0, 1); got != 1 {
		t.Fatalf("retryAfterFor with no estimate = %d, want fallback 1", got)
	}
	// A fleet drains shards-times faster: the same backlog prices shorter.
	if got := retryAfterFor(9, perLaunch, 5); got != 1 {
		t.Fatalf("retryAfterFor(9, shards=5) = %d, want 1", got)
	}
	if got := retryAfterFor(1000, perLaunch, 10); got != 51 {
		t.Fatalf("retryAfterFor(1000, shards=10) = %d, want 51", got)
	}
	if got := retryAfterFor(1000, perLaunch, 2); got != 60 {
		t.Fatalf("retryAfterFor(1000, shards=2) = %d, want clamp 60", got)
	}
	if got := retryAfterFor(9, perLaunch, 0); got != 5 {
		t.Fatalf("retryAfterFor with shards=0 = %d, want single-shard 5", got)
	}

	// Regression check over HTTP: the header must scale with the rejected
	// request's observed queue depth (the old code always said 1).
	headerAt := func(depth int) int {
		s, ts := newTestServer(t, Config{QueueDepth: depth})
		s.svcEWMANS.Store(int64(time.Second)) // one completion per second
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		results := make(chan LaunchResult, depth)
		for i := 0; i < depth; i++ {
			go func() {
				_, res := launch(t, ts.URL, LaunchRequest{Client: "c", Benchmark: "VA", Class: "trivial"})
				results <- res
			}()
		}
		waitFor(t, "queue full", func() bool { return getStatus(t, ts.URL).QueueLen == depth })
		body, _ := json.Marshal(LaunchRequest{Client: "c", Benchmark: "VA", Class: "trivial"})
		resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("code = %d, want 429", resp.StatusCode)
		}
		var secs int
		if _, err := fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &secs); err != nil {
			t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		go func() {
			for i := 0; i < depth; i++ {
				<-results
			}
			close(done)
		}()
		<-done
		return secs
	}
	shallow := headerAt(2)
	deep := headerAt(16)
	if deep <= shallow {
		t.Fatalf("Retry-After did not scale with queue depth: depth 2 → %ds, depth 16 → %ds", shallow, deep)
	}
}

func TestValidationRejectsDoNotMaterializeSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	garbage := []LaunchRequest{
		{Benchmark: "NOPE"},
		{Benchmark: "VA", Class: "huge"},
		{Benchmark: "VA", Priority: -1},
		{Benchmark: "VA", DeadlineMS: -1},
		{Benchmark: "VA", TimeoutMS: -5},
		{Benchmark: "VA", TimeoutMS: int(maxDurationMS + 1)},
		{Benchmark: "VA", SLOClass: "latency", DeadlineMS: int(maxDurationMS + 1)},
		{Benchmark: "VA", SLOClass: "best_effort", DeadlineMS: 5},
	}
	for i, req := range garbage {
		req.Client = fmt.Sprintf("garbage-%d", i)
		if code, res := launch(t, ts.URL, req); code != http.StatusBadRequest {
			t.Fatalf("%+v: code = %d, want 400 (%+v)", req, code, res)
		}
	}
	if st := s.Status(); st.Counters.RejectedInvalid != int64(len(garbage)) || st.Counters.Enqueued != 0 || st.SLO != (SLOStatus{}) {
		t.Fatalf("after %d invalid launches: counters %+v, slo %+v", len(garbage), st.Counters, st.SLO)
	}
	if n := len(s.SessionSnapshots()); n != 0 {
		t.Fatalf("validation rejects created %d sessions, want 0", n)
	}
	// An established client's invalid request IS recorded on its session.
	if code, _ := launch(t, ts.URL, LaunchRequest{Client: "real", Benchmark: "VA", Class: "trivial"}); code != http.StatusOK {
		t.Fatal("setup launch failed")
	}
	if code, _ := launch(t, ts.URL, LaunchRequest{Client: "real", Benchmark: "NOPE"}); code != http.StatusBadRequest {
		t.Fatal("invalid launch not rejected")
	}
	snaps := s.SessionSnapshots()
	if len(snaps) != 1 || snaps[0].RejectedInvalid != 1 {
		t.Fatalf("sessions: %+v", snaps)
	}
}

func TestDrainingRejectsAccountedWithoutNewSessions(t *testing.T) {
	cfg := Config{Benchmarks: []string{"VA", "MM"}}
	s, err := NewWithSystem(testSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := launch(t, ts.URL, LaunchRequest{Client: "known", Benchmark: "VA", Class: "trivial"}); code != http.StatusOK {
		t.Fatal("setup launch failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A known client's launch while draining lands on its session...
	if code, _ := launch(t, ts.URL, LaunchRequest{Client: "known", Benchmark: "VA"}); code != http.StatusServiceUnavailable {
		t.Fatal("draining daemon accepted a launch")
	}
	// ...and a stranger's creates no session at all.
	if code, _ := launch(t, ts.URL, LaunchRequest{Client: "stranger", Benchmark: "VA"}); code != http.StatusServiceUnavailable {
		t.Fatal("draining daemon accepted a launch")
	}
	snaps := s.SessionSnapshots()
	if len(snaps) != 1 || snaps[0].ID != "known" || snaps[0].RejectedDraining != 1 {
		t.Fatalf("sessions after draining rejects: %+v", snaps)
	}
	if c := s.Counters(); c["rejected_draining"] != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestCanceledWaiterTrackedPerSession(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(LaunchRequest{Client: "quitter", Benchmark: "VA", Class: "trivial"})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/launch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	waitFor(t, "launch queued", func() bool { return getStatus(t, ts.URL).QueueLen == 1 })
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request did not error client-side")
	}
	waitFor(t, "cancel recorded", func() bool { return s.Counters()["canceled"] == 1 })

	snaps := s.SessionSnapshots()
	if len(snaps) != 1 || snaps[0].Canceled != 1 {
		t.Fatalf("sessions: %+v", snaps)
	}
	// The invocation is not lost: resume and it completes.
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "invocation completed", func() bool { return s.Counters()["completed"] == 1 })
}
