package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/obs"
)

// shapeOf resolves a launch of a loaded benchmark's class-c input the way
// admitLaunch does. Every loaded benchmark has artifacts, so it cannot fail.
func shapeOf(s *Server, bench string, c kernels.InputClass) core.Shape {
	sh, err := s.sys.Resolve(s.benches[bench], c, 0)
	if err != nil {
		panic(err)
	}
	return sh
}

// mkLaunchReq builds a pooled request the way serveLaunch does, for
// driving tryEnqueue directly from tests.
func mkLaunchReq(s *Server, client string, deadline time.Duration) *launchReq {
	q := getLaunchReq()
	q.client, q.Shape = client, shapeOf(s, "VA", kernels.Trivial)
	q.Priority, q.Budget = 1, deadline
	q.enqueuedReal = time.Now()
	return q
}

// TestBestEffortShedGateIsAtomic is the regression test for the
// check-then-send race: the old gate read len(submitCh) before the
// select send, so N racing best-effort handlers could all pass a stale
// check and collectively overshoot the cost-aware share while a deadline
// was outstanding. The CAS'd reservation makes the decision atomic with
// admission: however many goroutines race, total queue occupancy never
// exceeds beLimit while LC work is outstanding.
func TestBestEffortShedGateIsAtomic(t *testing.T) {
	s, _ := newTestServer(t, Config{QueueDepth: 16})
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	// One deadline-bearing launch arms the shed gate (lcOutstanding > 0)
	// and occupies one queued slot.
	if err := s.tryEnqueue(mkLaunchReq(s, "lc", 50*time.Millisecond)); err != nil {
		t.Fatalf("LC enqueue: %v", err)
	}

	const attackers = 64
	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < attackers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			q := mkLaunchReq(s, "be", 0)
			switch err := s.tryEnqueue(q); {
			case err == nil:
				accepted.Add(1)
			case errors.Is(err, ErrBestEffortShed) || errors.Is(err, ErrQueueFull):
				shed.Add(1)
				putLaunchReq(q)
			default:
				t.Errorf("unexpected enqueue error: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()

	total := accepted.Load() + 1 // the LC launch holds one slot too
	if total > int64(s.beLimit) {
		t.Fatalf("concurrent best-effort admissions overshot the cost-aware share: %d queued > beLimit %d",
			total, s.beLimit)
	}
	if shed.Load() == 0 {
		t.Fatalf("no launch shed with %d attackers against beLimit %d", attackers, s.beLimit)
	}
	if got := s.queued.Load(); got != total {
		t.Fatalf("queued counter = %d, want %d (reservations must match channel occupancy)", got, total)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	// All accepted work drains and releases its reservations.
	waitFor(t, "queued counter drained", func() bool { return s.queued.Load() == 0 })
}

// TestFleetRetryAfterShrinksWithDevices pins the multi-device pricing
// fix: a rejected client's wait is the backlog divided by the fleet's
// drain parallelism, so the same queue depth and per-shard completion
// EWMA must produce a smaller Retry-After as -devices grows.
func TestFleetRetryAfterShrinksWithDevices(t *testing.T) {
	header := func(devices int) int {
		const depth = 4
		f, err := NewFleetWithSystem(testSystem(t), FleetConfig{
			Config:  Config{Benchmarks: []string{"VA", "MM"}, QueueDepth: depth},
			Devices: devices,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(f.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = f.Shutdown(ctx)
		})
		if err := f.Pause(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < devices; i++ {
			f.Shard(i).svcEWMANS.Store(int64(2 * time.Second)) // one completion per 2s per shard
		}
		// The client is pinned to one shard; fill exactly that queue.
		body, _ := json.Marshal(LaunchRequest{Client: "ra", Benchmark: "VA", Class: "trivial"})
		for i := 0; i < depth; i++ {
			go func() {
				resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		waitFor(t, "pinned shard queue full", func() bool {
			for i := 0; i < devices; i++ {
				if len(f.Shard(i).submitCh) == depth {
					return true
				}
			}
			return false
		})
		resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow launch: code = %d, want 429", resp.StatusCode)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
		}
		if err := f.Resume(); err != nil {
			t.Fatal(err)
		}
		return secs
	}

	h1 := header(1)
	h4 := header(4)
	// depth 4, 2s per completion: one device prices (4+1)×2s = 10s; four
	// devices drain the same backlog in parallel, 10/4 → ceil = 3s.
	if h1 != 10 {
		t.Fatalf("single-device Retry-After = %d, want 10", h1)
	}
	if h4 != 3 {
		t.Fatalf("4-device Retry-After = %d, want 3", h4)
	}
	if h4 >= h1 {
		t.Fatalf("Retry-After must shrink with devices: 1-dev=%d 4-dev=%d", h1, h4)
	}
}

// TestPauseHoldsLaunchesSentAfterAck pins Pause's contract: once Pause has
// returned, a launch sent afterwards stays in the admission queue — the
// loop neither pops nor submits it — until Resume. The loop used to run
// an absorb pass after every control message, paused or not, so a launch
// that raced the acknowledgement was admitted (a window only a loaded
// host hits), and so was everything queued when a redundant Pause arrived
// (which this test uses to hit the same pass deterministically).
func TestPauseHoldsLaunchesSentAfterAck(t *testing.T) {
	const depth = 8
	s, _ := newTestServer(t, Config{QueueDepth: depth})
	submits := func() float64 {
		var buf bytes.Buffer
		if err := s.writeMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := snap.Get("flep_runtime_submits_total")
		return v
	}
	reqs := make([]*launchReq, depth)
	for cycle := 0; cycle < 50; cycle++ {
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		before, completed := submits(), s.Counters()["completed"]
		for i := range reqs {
			reqs[i] = mkLaunchReq(s, "paused", 0)
			if err := s.tryEnqueue(reqs[i]); err != nil {
				t.Fatalf("cycle %d: enqueue %d into a paused, empty queue: %v", cycle, i, err)
			}
			s.countEnqueued(reqs[i])
		}
		if err := s.Pause(); err != nil { // an operator's retry; must change nothing
			t.Fatal(err)
		}
		// A wrongly admitted launch never comes back (virtual time stands
		// still), so one look after the loop had time to finish its pass
		// is conclusive.
		time.Sleep(200 * time.Microsecond)
		if got := s.Status().QueueLen; got != depth {
			t.Fatalf("cycle %d: queue_len = %d while paused, want %d: the loop popped launches sent after Pause returned", cycle, got, depth)
		}
		if got := submits(); got != before {
			t.Fatalf("cycle %d: flep_runtime_submits_total moved %v -> %v while paused", cycle, before, got)
		}
		if got := s.Counters()["completed"]; got != completed {
			t.Fatalf("cycle %d: completed moved %d -> %d while paused", cycle, completed, got)
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		for _, q := range reqs {
			if res := <-q.done; res.Err != "" {
				t.Fatalf("cycle %d: %s", cycle, res.Err)
			}
			putLaunchReq(q)
		}
		if got := s.Counters()["completed"]; got != completed+depth {
			t.Fatalf("cycle %d: completed = %d after resume, want %d", cycle, got, completed+depth)
		}
	}
}

// TestQueueWaitAccountingUnderSaturation saturates a paused queue, 429s
// the overflow, and checks that the two views of queue wait — the
// per-result QueueWaitRealNS and the flep_server_admission_wait_seconds
// histogram — stay consistent and monotone non-negative: one observation
// per admitted launch (never per 429), equal sums, no negative wait.
func TestQueueWaitAccountingUnderSaturation(t *testing.T) {
	const depth = 8
	s, ts := newTestServer(t, Config{QueueDepth: depth})
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	results := make(chan LaunchResult, depth)
	for i := 0; i < depth; i++ {
		go func() {
			_, res := launch(t, ts.URL, LaunchRequest{Client: "qw", Benchmark: "VA", Class: "trivial"})
			results <- res
		}()
	}
	waitFor(t, "queue full", func() bool { return len(s.submitCh) == depth })

	// Saturation overflow: all rejected, none may touch the queue-wait
	// accounting.
	body, _ := json.Marshal(LaunchRequest{Client: "qw", Benchmark: "VA", Class: "trivial"})
	for i := 0; i < depth; i++ {
		resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overflow launch %d: code = %d, want 429", i, resp.StatusCode)
		}
	}
	time.Sleep(50 * time.Millisecond) // give the queued launches measurable wait
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}

	var sumNS, maxNS int64
	for i := 0; i < depth; i++ {
		res := <-results
		if res.Err != "" {
			t.Fatalf("queued launch failed: %+v", res)
		}
		if res.QueueWaitRealNS < 0 {
			t.Fatalf("negative queue wait: %d", res.QueueWaitRealNS)
		}
		sumNS += res.QueueWaitRealNS
		if res.QueueWaitRealNS > maxNS {
			maxNS = res.QueueWaitRealNS
		}
	}
	if maxNS < int64(25*time.Millisecond) {
		t.Fatalf("max queue wait %v implausibly small for a 50ms paused queue", time.Duration(maxNS))
	}
	if got := s.met.AdmissionWait.Count(); got != depth {
		t.Fatalf("admission-wait observations = %d, want %d (429s must not observe)", got, depth)
	}
	sumSec := s.met.AdmissionWait.Sum()
	if sumSec < 0 {
		t.Fatalf("admission-wait sum went negative: %g", sumSec)
	}
	if diff := math.Abs(sumSec - float64(sumNS)/1e9); diff > 1e-6*(1+sumSec) {
		t.Fatalf("histogram sum %.9fs disagrees with result sum %.9fs", sumSec, float64(sumNS)/1e9)
	}

	// The rendered exposition must agree too (the lock-free histogram's
	// scrape path, at rest).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.SumMatching("flep_server_admission_wait_seconds_count"); got != depth {
		t.Fatalf("exposed admission-wait count = %g, want %d", got, depth)
	}
}

// TestBatchedAdmissionReconciles checks the batched absorb pass: a
// paused-then-resumed full queue must be admitted in coalesced batches
// (not one loop iteration per launch), the batch-size histogram must
// account every admitted launch exactly once, and exactly-once
// accounting must close at rest.
func TestBatchedAdmissionReconciles(t *testing.T) {
	const depth = 16
	s, ts := newTestServer(t, Config{QueueDepth: depth})
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	results := make(chan LaunchResult, depth)
	for i := 0; i < depth; i++ {
		go func() {
			_, res := launch(t, ts.URL, LaunchRequest{Client: "batch", Benchmark: "MM", Class: "trivial"})
			results <- res
		}()
	}
	waitFor(t, "queue full", func() bool { return len(s.submitCh) == depth })
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		if res := <-results; res.Err != "" {
			t.Fatalf("launch failed: %+v", res)
		}
	}
	if got := s.met.AdmitBatchSize.Sum(); got != depth {
		t.Fatalf("batch-size sum = %g, want %d (every admission in exactly one batch)", got, depth)
	}
	batches := s.met.AdmitBatches.Value()
	if batches == 0 {
		t.Fatal("no admission batches counted")
	}
	if batches > depth/2 {
		t.Fatalf("%d batches for %d queued launches: absorb pass is not coalescing", batches, depth)
	}
	st := getStatus(t, ts.URL)
	if st.Counters.Enqueued != depth || st.Counters.Completed != depth {
		t.Fatalf("exactly-once after batch: %+v", st.Counters)
	}
}
