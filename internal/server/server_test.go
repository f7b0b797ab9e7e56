package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
)

// One shared system: the offline phase is deterministic, so every test
// can reuse it (servers own their engines, not the system's artifacts).
var (
	sysOnce sync.Once
	sysInst *core.System
	sysErr  error
)

func testSystem(t testing.TB) *core.System {
	t.Helper()
	sysOnce.Do(func() {
		s := core.NewSystem(gpu.DefaultParams())
		var benchs []*kernels.Benchmark
		for _, n := range []string{"VA", "MM"} {
			b, err := kernels.ByName(n)
			if err != nil {
				sysErr = err
				return
			}
			benchs = append(benchs, b)
		}
		sysErr = s.Offline(benchs)
		sysInst = s
	})
	if sysErr != nil {
		t.Fatalf("offline: %v", sysErr)
	}
	return sysInst
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = []string{"VA", "MM"}
	}
	s, err := NewWithSystem(testSystem(t), cfg)
	if err != nil {
		t.Fatalf("NewWithSystem: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// launch POSTs a launch request and decodes the response body.
func launch(t *testing.T, url string, req LaunchRequest) (int, LaunchResult) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/launch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/launch: %v", err)
	}
	defer resp.Body.Close()
	var res LaunchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, res
}

func getStatus(t *testing.T, url string) Status {
	t.Helper()
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatalf("GET /v1/status: %v", err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLaunchCompletesWithStructuredResult(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, res := launch(t, ts.URL, LaunchRequest{Client: "c1", Benchmark: "MM", Class: "small", Priority: 2})
	if code != http.StatusOK {
		t.Fatalf("code = %d, body %+v", code, res)
	}
	if res.ID == 0 || res.Kernel != "MM" || res.Class != "small" || res.Priority != 2 {
		t.Fatalf("bad identity fields: %+v", res)
	}
	if res.TurnaroundNS <= 0 || res.ExecutionNS <= 0 || res.FinishedVirtualNS < res.SubmittedVirtualNS {
		t.Fatalf("bad timings: %+v", res)
	}
	if res.NTT < 0.99 {
		t.Fatalf("solo-normalized turnaround below 1: %+v", res)
	}
	if res.Preemptions != 0 {
		t.Fatalf("uncontended run was preempted: %+v", res)
	}
}

func TestRejectsInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []LaunchRequest{
		{Benchmark: "NOPE"},
		{Benchmark: "VA", Class: "gigantic"},
		{Benchmark: "VA", Priority: -1},
	} {
		code, _ := launch(t, ts.URL, req)
		if code != http.StatusBadRequest {
			t.Fatalf("req %+v: code = %d, want 400", req, code)
		}
	}
	st := getStatus(t, ts.URL)
	if st.Counters.RejectedInvalid != 3 || st.Counters.Enqueued != 0 {
		t.Fatalf("counters: %+v", st.Counters)
	}
}

func TestOversizedWorkingSetRejectedByRuntime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A task count whose modeled working set exceeds the K40's 12 GB.
	code, res := launch(t, ts.URL, LaunchRequest{Benchmark: "VA", TasksOverride: 1 << 34})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("code = %d (%+v), want 422", code, res)
	}
	if res.Err == "" {
		t.Fatalf("missing error: %+v", res)
	}
	st := getStatus(t, ts.URL)
	if st.Counters.SubmitErrors != 1 || st.Counters.Completed != 0 {
		t.Fatalf("counters: %+v", st.Counters)
	}
}

func TestAdmissionFullYields429WithRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1})
	// Park the scheduler so the queued launch cannot drain: the second
	// launch must hit a genuinely full queue.
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	firstDone := make(chan LaunchResult, 1)
	go func() {
		_, res := launch(t, ts.URL, LaunchRequest{Client: "c1", Benchmark: "VA"})
		firstDone <- res
	}()
	waitFor(t, "first launch queued", func() bool {
		return getStatus(t, ts.URL).QueueLen == 1
	})

	body, _ := json.Marshal(LaunchRequest{Client: "c2", Benchmark: "MM"})
	resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	res := <-firstDone
	if res.Err != "" || res.TurnaroundNS <= 0 {
		t.Fatalf("queued launch failed after resume: %+v", res)
	}
	st := getStatus(t, ts.URL)
	if st.Counters.RejectedFull != 1 || st.Counters.Enqueued != 1 || st.Counters.Completed != 1 {
		t.Fatalf("counters: %+v", st.Counters)
	}
}

func TestRequestTimeoutDoesNotLoseInvocation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	code, _ := launch(t, ts.URL, LaunchRequest{Client: "slow", Benchmark: "VA", TimeoutMS: 50})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504", code)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	// The handler gave up but the invocation must still complete exactly
	// once.
	waitFor(t, "abandoned invocation completion", func() bool {
		return getStatus(t, ts.URL).Counters.Completed == 1
	})
	st := getStatus(t, ts.URL)
	if st.Counters.TimedOut != 1 || st.Counters.Enqueued != 1 {
		t.Fatalf("counters: %+v", st.Counters)
	}
}

func TestGracefulShutdownDrainsQueueWithPreemption(t *testing.T) {
	cfg := Config{Trace: true}
	s, ts := newTestServer(t, cfg)
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	// Queue a long low-priority kernel, then a short high-priority one,
	// in that arrival order.
	lowDone := make(chan LaunchResult, 1)
	go func() {
		_, res := launch(t, ts.URL, LaunchRequest{Client: "low", Benchmark: "VA", Class: "large", Priority: 1})
		lowDone <- res
	}()
	waitFor(t, "low-priority launch queued", func() bool {
		return getStatus(t, ts.URL).QueueLen == 1
	})
	highDone := make(chan LaunchResult, 1)
	go func() {
		_, res := launch(t, ts.URL, LaunchRequest{Client: "high", Benchmark: "MM", Class: "small", Priority: 2})
		highDone <- res
	}()
	waitFor(t, "high-priority launch queued", func() bool {
		return getStatus(t, ts.URL).QueueLen == 2
	})

	// Shutdown while both sit in the admission queue: the drain must
	// admit them in arrival order, let the high-priority kernel preempt
	// the low one, and run both to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	low, high := <-lowDone, <-highDone
	if low.Err != "" || high.Err != "" {
		t.Fatalf("drain lost invocations: low=%+v high=%+v", low, high)
	}
	if high.FinishedVirtualNS >= low.FinishedVirtualNS {
		t.Fatalf("high priority did not finish first: high=%d low=%d",
			high.FinishedVirtualNS, low.FinishedVirtualNS)
	}
	if low.Preemptions < 1 {
		t.Fatalf("low-priority kernel was never preempted: %+v", low)
	}
	if got, _ := s.TraceEntries("preempt", 0); len(got) == 0 {
		t.Fatal("trace recorded no preempt event")
	}

	// A post-drain launch is rejected with 503.
	code, _ := launch(t, ts.URL, LaunchRequest{Benchmark: "MM"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown launch code = %d, want 503", code)
	}
	// Drained at rest: the exactly-once invariant holds with equality.
	st := getStatus(t, ts.URL)
	if st.Counters.Completed != st.Counters.Enqueued || st.Counters.Completed != 2 {
		t.Fatalf("exactly-once violated after drain: %+v", st.Counters)
	}
}

func TestConcurrentSessionsExactlyOnce(t *testing.T) {
	const clients = 100
	const perClient = 3
	s, ts := newTestServer(t, Config{QueueDepth: 64, RequestTimeout: time.Minute})
	ts.Config.SetKeepAlivesEnabled(false) // don't exhaust fds on 100 conns

	var wg sync.WaitGroup
	var mu sync.Mutex
	ids := map[int]int{}
	var oks, retries int
	benchNames := []string{"VA", "MM"}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("c%03d", c)
			for i := 0; i < perClient; i++ {
				req := LaunchRequest{
					Client:    client,
					Benchmark: benchNames[(c+i)%len(benchNames)],
					Class:     "small",
					Priority:  1 + (c+i)%2,
				}
				for {
					body, _ := json.Marshal(req)
					resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("%s: %v", client, err)
						return
					}
					var res LaunchResult
					code := resp.StatusCode
					if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
						resp.Body.Close()
						t.Errorf("%s: decode: %v", client, err)
						return
					}
					resp.Body.Close()
					if code == http.StatusTooManyRequests {
						mu.Lock()
						retries++
						mu.Unlock()
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if code != http.StatusOK {
						t.Errorf("%s: code %d (%+v)", client, code, res)
						return
					}
					mu.Lock()
					ids[res.ID]++
					oks++
					mu.Unlock()
					break
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if oks != clients*perClient {
		t.Fatalf("oks = %d, want %d", oks, clients*perClient)
	}
	for id, n := range ids {
		if n != 1 {
			t.Fatalf("invocation id %d delivered %d times", id, n)
		}
	}
	// At rest (all responses received ⇒ all invocations completed), the
	// exactly-once invariant holds with equality.
	waitFor(t, "all invocations accounted", func() bool {
		st := getStatus(t, ts.URL)
		return st.Counters.Completed == st.Counters.Enqueued
	})
	st := getStatus(t, ts.URL)
	if st.Counters.Completed != int64(oks) {
		t.Fatalf("completed %d != accepted %d (retries seen: %d)", st.Counters.Completed, oks, retries)
	}
	if st.Sessions != clients {
		t.Fatalf("sessions = %d, want %d", st.Sessions, clients)
	}

	// Every session drained back to S1 with consistent accounting.
	for _, snap := range s.SessionSnapshots() {
		if snap.InFlight != 0 || snap.Completed != perClient {
			t.Fatalf("session %s inconsistent: %+v", snap.ID, snap)
		}
	}
}

// TestSpatialDaemonSurvivesMixedPriorityBurst is the regression test for
// the `bad SM range [0,0)` panic on the loop goroutine: sixteen closed-loop
// clients alternating a device-filling low-priority launch with a 16-CTA
// high-priority one keep aiming spatial preemptions at primaries that are
// still launching, or that have not yet reclaimed a departed guest's SMs.
// Every launch must be answered, and spatial preemption must still happen.
func TestSpatialDaemonSurvivesMixedPriorityBurst(t *testing.T) {
	const clients, perClient = 16, 200
	// Paced, so that launches arrive while kernels are resident and not only
	// between them: some two hundred preemptions of each kind per run.
	_, ts := newTestServer(t, Config{Spatial: true, QueueDepth: 64, RequestTimeout: time.Minute, Pace: 20 * time.Microsecond})
	var wg sync.WaitGroup
	var oks atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := LaunchRequest{Client: fmt.Sprintf("c%02d", c), Benchmark: "VA", Class: "small", Priority: 1}
				if (c+i)%2 == 1 {
					req = LaunchRequest{Client: req.Client, Benchmark: "MM", Class: "small", TasksOverride: 16, Priority: 2}
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("%s launch %d: %v", req.Client, i, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					oks.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if got := oks.Load(); got != clients*perClient {
		t.Fatalf("%d of %d launches answered 200", got, clients*perClient)
	}
	st := getStatus(t, ts.URL)
	if st.Counters.Enqueued != clients*perClient || st.Counters.Completed != st.Counters.Enqueued {
		t.Fatalf("enqueued=%d completed=%d, want %d of each", st.Counters.Enqueued, st.Counters.Completed, clients*perClient)
	}
	if n, _ := scrape(t, ts.URL).Get(`flep_runtime_preemptions_total{mode="spatial"}`); n < 1 {
		t.Fatalf("%v spatial preemptions counted: the burst no longer exercises the spatial path", n)
	}
}

func TestSessionsAndBenchmarksEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := launch(t, ts.URL, LaunchRequest{Client: "alice", Benchmark: "VA"}); code != 200 {
		t.Fatalf("launch failed: %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var sessions []SessionSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sessions) != 1 || sessions[0].ID != "alice" || sessions[0].Completed != 1 {
		t.Fatalf("sessions: %+v", sessions)
	}
	if sessions[0].HostState != "S1 (cpu)" {
		t.Fatalf("idle session not in S1: %+v", sessions[0])
	}

	resp, err = http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	var infos []BenchmarkInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 2 {
		t.Fatalf("benchmarks: %+v", infos)
	}
	for _, bi := range infos {
		if bi.Classes["small"].SoloNS <= 0 {
			t.Fatalf("%s: missing solo baseline: %+v", bi.Name, bi)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Trace: true})
	if code, _ := launch(t, ts.URL, LaunchRequest{Benchmark: "MM"}); code != 200 {
		t.Fatal("launch failed")
	}
	resp, err := http.Get(ts.URL + "/v1/trace?kind=submit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("submit entries = %d, want 1", len(entries))
	}
}

// TestTraceEndpointTextIsTheLogsWriteText pins the text rendering of
// /v1/trace to trace.Log.WriteText, byte for byte: the event-order goldens
// hash that text, and the endpoint used to re-spell its format string.
func TestTraceEndpointTextIsTheLogsWriteText(t *testing.T) {
	s, ts := newTestServer(t, Config{Trace: true})
	for _, req := range []LaunchRequest{{Benchmark: "MM", Priority: 1}, {Benchmark: "VA", Class: "trivial", Priority: 3}} {
		if code, _ := launch(t, ts.URL, req); code != 200 {
			t.Fatal("launch failed")
		}
	}
	resp, err := http.Get(ts.URL + "/v1/trace?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := s.tlog.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("GET /v1/trace?format=text differs from the log's WriteText\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

func TestPauseResumeEndpointsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/pause", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !getStatus(t, ts.URL).Paused {
		t.Fatal("pause endpoint did not pause")
	}
	resp, err = http.Post(ts.URL+"/v1/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if getStatus(t, ts.URL).Paused {
		t.Fatal("resume endpoint did not resume")
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err = http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d, want 200", probe, resp.StatusCode)
		}
	}
}

// The liveness/readiness split: /readyz flips to 503 the instant drain
// begins — so a load balancer stops routing — while /healthz stays 200
// for as long as the process serves HTTP (a draining daemon is alive by
// definition; killing it over a failed liveness probe would abort the
// drain it is performing).
func TestReadyzFlipsDuringDrain(t *testing.T) {
	// A pace slow enough that the drain is still in progress when we
	// probe, fast enough that cleanup's 30s shutdown budget holds.
	s, ts := newTestServer(t, Config{Pace: 2 * time.Millisecond})

	probe := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := probe("/readyz"); code != 200 {
		t.Fatalf("pre-drain readyz = %d, want 200", code)
	}

	// Keep work in flight while the drain runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		launch(t, ts.URL, LaunchRequest{Benchmark: "VA"})
	}()
	waitFor(t, "launch admitted", func() bool { return getStatus(t, ts.URL).Counters.Enqueued >= 1 })

	go s.Shutdown(context.Background())
	waitFor(t, "readyz to flip", func() bool { return probe("/readyz") == http.StatusServiceUnavailable })
	if code := probe("/healthz"); code != 200 {
		t.Fatalf("healthz during drain = %d, want 200 (liveness must not follow drain)", code)
	}
	// The in-flight launch still completes: drain refuses new work, it
	// does not abandon admitted work.
	<-done
	if c := getStatus(t, ts.URL).Counters; c.Completed+c.SubmitErrors != c.Enqueued {
		t.Fatalf("drain abandoned admitted work: %+v", c)
	}
}
