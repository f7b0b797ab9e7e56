package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sessionFamilies keys a session row's outcome counts by the Counters()
// family names.
func sessionFamilies(sn SessionSnapshot) map[string]int64 {
	m := map[string]int64{}
	for o := outEnqueued; o < numOutcomes; o++ {
		m[outcomes[o].key] = *sn.slots()[o]
	}
	return m
}

// ledgerViews reads the launch ledger the three ways the daemon serves
// it — Counters() (the /v1/status block), the flep_server_launches_total
// family parsed from /metrics, and the client's /v1/sessions row — each
// keyed by the Counters() family name so the views diff against each
// other.
func ledgerViews(t *testing.T, s *Server, url, client string) map[string]map[string]int64 {
	t.Helper()
	metrics := map[string]int64{}
	const family = `flep_server_launches_total{outcome="`
	for key, v := range scrape(t, url) {
		label, ok := strings.CutPrefix(key, family)
		if !ok {
			continue
		}
		label = strings.TrimSuffix(label, `"}`)
		o := outEnqueued
		for o < numOutcomes && outcomes[o].label != label {
			o++
		}
		if o == numOutcomes {
			t.Fatalf("/metrics has an outcome %q the table does not", label)
		}
		metrics[outcomes[o].key] = int64(v)
	}
	var session map[string]int64
	for _, sn := range s.SessionSnapshots() {
		if sn.ID == client {
			session = sessionFamilies(sn)
		}
	}
	if session == nil {
		t.Fatalf("client %q has no session", client)
	}
	return map[string]map[string]int64{"counters": s.Counters(), "metrics": metrics, "session": session}
}

// TestEveryOutcomeMovesOneFamilyInAllViews drives, for each launch
// outcome, exactly one request that ends in it and requires that exactly
// the expected families moved, by exactly one, identically in
// Counters(), /metrics and the client's session — and that nothing else
// moved. It is what keeps countLocked's switch honest: a family dropped
// from one view, counted twice, or counted beside a second family fails
// here deterministically.
func TestEveryOutcomeMovesOneFamilyInAllViews(t *testing.T) {
	const client = "ledger"
	trivial := LaunchRequest{Client: client, Benchmark: "VA", Class: "trivial"}
	expect := func(t *testing.T, url string, req LaunchRequest, want int) {
		t.Helper()
		if code, res := launch(t, url, req); code != want {
			t.Fatalf("code = %d, want %d (%+v)", code, want, res)
		}
	}
	pause := func(t *testing.T, s *Server, _ string) {
		t.Helper()
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
	}
	// pauseAndQueue leaves one launch from another client in the paused queue.
	pauseAndQueue := func(t *testing.T, s *Server, url string, req LaunchRequest) {
		t.Helper()
		pause(t, s, url)
		postAsync(url, req)
		waitFor(t, "filler queued", func() bool { return len(s.submitCh) == 1 })
	}

	cases := []struct {
		name  string
		cfg   Config
		setup func(t *testing.T, s *Server, url string) // state the request needs; runs before the first snapshot
		drive func(t *testing.T, s *Server, url string) // the one request; returns once its outcome is counted
		want  map[string]int64
	}{
		{
			name:  "200 completed",
			drive: func(t *testing.T, s *Server, url string) { expect(t, url, trivial, http.StatusOK) },
			want:  map[string]int64{"enqueued": 1, "completed": 1},
		},
		{
			// A one-stage graph walks the dependency table's ready and
			// stage-done paths around the same two counts.
			name: "200 completed graph stage",
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.Graph, req.Stages, req.Stage = "g", 1, "only"
				expect(t, url, req, http.StatusOK)
			},
			want: map[string]int64{"enqueued": 1, "completed": 1},
		},
		{
			name: "422 oversized working set",
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.TasksOverride = 1 << 34
				expect(t, url, req, http.StatusUnprocessableEntity)
			},
			want: map[string]int64{"enqueued": 1, "submit_errors": 1},
		},
		{
			name: "429 queue full",
			cfg:  Config{QueueDepth: 1},
			setup: func(t *testing.T, s *Server, url string) {
				pauseAndQueue(t, s, url, LaunchRequest{Client: "filler", Benchmark: "VA", Class: "trivial"})
			},
			drive: func(t *testing.T, s *Server, url string) { expect(t, url, trivial, http.StatusTooManyRequests) },
			want:  map[string]int64{"rejected_queue_full": 1},
		},
		{
			name: "429 best-effort shed",
			cfg:  Config{QueueDepth: 2}, // beLimit 1: one outstanding deadline fills the best-effort share
			setup: func(t *testing.T, s *Server, url string) {
				pauseAndQueue(t, s, url, LaunchRequest{Client: "lc", Benchmark: "VA", Class: "trivial", DeadlineMS: 60000})
			},
			drive: func(t *testing.T, s *Server, url string) { expect(t, url, trivial, http.StatusTooManyRequests) },
			want:  map[string]int64{"rejected_best_effort_shed": 1},
		},
		{
			name: "503 draining",
			setup: func(t *testing.T, s *Server, url string) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
			},
			drive: func(t *testing.T, s *Server, url string) { expect(t, url, trivial, http.StatusServiceUnavailable) },
			want:  map[string]int64{"rejected_draining": 1},
		},
		{
			name: "400 invalid",
			drive: func(t *testing.T, s *Server, url string) {
				expect(t, url, LaunchRequest{Client: client, Benchmark: "NOPE"}, http.StatusBadRequest)
			},
			want: map[string]int64{"rejected_invalid": 1},
		},
		{
			// One past the most milliseconds a Duration holds: the budget
			// used to wrap negative and the launch ran, 200, untracked.
			name: "400 deadline_ms wraps",
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.SLOClass, req.DeadlineMS = "latency", int(maxDurationMS+1)
				expect(t, url, req, http.StatusBadRequest)
			},
			want: map[string]int64{"rejected_invalid": 1},
		},
		{
			// Used to wrap into an expired timer: 504 at once, launch running.
			name: "400 timeout_ms wraps",
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.TimeoutMS = int(maxDurationMS + 1)
				expect(t, url, req, http.StatusBadRequest)
			},
			want: map[string]int64{"rejected_invalid": 1},
		},
		{
			name: "400 timeout_ms negative",
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.TimeoutMS = -5
				expect(t, url, req, http.StatusBadRequest)
			},
			want: map[string]int64{"rejected_invalid": 1},
		},
		{
			name: "429 dep table full",
			cfg:  Config{DepPending: 1},
			setup: func(t *testing.T, s *Server, url string) {
				parked := trivial
				parked.Graph, parked.Stages, parked.Stage, parked.After = "g", 3, "s2", []string{"s1"}
				postAsync(url, parked)
				waitFor(t, "s2 parked", func() bool { return s.depParkedCount() == 1 })
			},
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.Graph, req.Stages, req.Stage, req.After = "g", 3, "s3", []string{"s1"}
				expect(t, url, req, http.StatusTooManyRequests)
			},
			want: map[string]int64{"rejected_dep_table_full": 1},
		},
		{
			name: "409 dep-canceled stage",
			setup: func(t *testing.T, s *Server, url string) {
				failed := trivial
				failed.Graph, failed.Stages, failed.Stage, failed.TasksOverride = "g", 2, "a", 1<<34
				expect(t, url, failed, http.StatusUnprocessableEntity)
			},
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.Graph, req.Stages, req.Stage, req.After = "g", 2, "b", []string{"a"}
				expect(t, url, req, http.StatusConflict)
			},
			want: map[string]int64{"dep_canceled": 1},
		},
		{
			name:  "504 timeout",
			setup: pause,
			drive: func(t *testing.T, s *Server, url string) {
				req := trivial
				req.TimeoutMS = 20
				expect(t, url, req, http.StatusGatewayTimeout)
			},
			want: map[string]int64{"enqueued": 1, "timed_out": 1},
		},
		{
			name:  "client cancel",
			setup: pause,
			drive: func(t *testing.T, s *Server, url string) {
				body, _ := json.Marshal(trivial)
				ctx, cancel := context.WithCancel(context.Background())
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/launch", bytes.NewReader(body))
				errCh := make(chan error, 1)
				go func() {
					_, err := http.DefaultClient.Do(req)
					errCh <- err
				}()
				waitFor(t, "launch queued", func() bool { return len(s.submitCh) == 1 })
				before := s.Counters()["canceled"]
				cancel()
				if err := <-errCh; err == nil {
					t.Fatal("canceled request did not error client-side")
				}
				waitFor(t, "cancel counted", func() bool { return s.Counters()["canceled"] > before })
			},
			want: map[string]int64{"enqueued": 1, "canceled": 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := newTestServer(t, tc.cfg)
			url := srv.URL
			// Runs before newTestServer's cleanup closes the listener, which
			// waits for handlers a paused loop or a parked stage still holds.
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			})
			// Refusals are recorded on existing sessions only.
			expect(t, url, trivial, http.StatusOK)
			if tc.setup != nil {
				tc.setup(t, s, url)
			}
			before := ledgerViews(t, s, url, client)
			tc.drive(t, s, url)
			after := ledgerViews(t, s, url, client)
			for view, now := range after {
				for family, v := range now {
					if got, want := v-before[view][family], tc.want[family]; got != want {
						t.Errorf("%s: %s moved by %d, want %d", view, family, got, want)
					}
				}
				for family := range tc.want {
					if _, ok := now[family]; !ok {
						t.Errorf("%s: no family %s", view, family)
					}
				}
			}
		})
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		for family := range tc.want {
			covered[family] = true
		}
	}
	for family := range sessionFamilies(SessionSnapshot{}) {
		if !covered[family] {
			t.Errorf("no case ends in %s", family)
		}
	}
}

// TestEnqueueIsCountedBeforeCompletion is the regression test for the
// hand-off race: the handler hands a launch to the loop and counts it
// (creating its session) afterwards, and only the handler used to count,
// so a trivial kernel could complete in between — the completion found no
// session and the client read in_flight:1 forever, while /v1/status could
// briefly show Completed ahead of Enqueued. A fresh client per launch
// makes every launch a chance to lose the race.
func TestEnqueueIsCountedBeforeCompletion(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	stop, polled := make(chan struct{}), make(chan int)
	go func() {
		broken := 0
		for {
			select {
			case <-stop:
				polled <- broken
				return
			default:
				if !s.Status().ExactlyOnceOK {
					broken++
				}
			}
		}
	}()

	const launches = 20000
	for i := 0; i < launches; i++ {
		body := `{"client":"c` + strconv.Itoa(i) + `","benchmark":"VA","class":"trivial"}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/launch", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("launch %d: code %d: %s", i, rec.Code, rec.Body)
		}
	}
	close(stop)
	if broken := <-polled; broken > 0 {
		t.Errorf("%d polled statuses had exactly_once_ok false", broken)
	}
	snaps := s.SessionSnapshots()
	if len(snaps) != launches {
		t.Fatalf("%d sessions, want %d", len(snaps), launches)
	}
	lost := 0
	for _, sn := range snaps {
		if sn.Completed != 1 || sn.InFlight != 0 {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d sessions did not see their launch complete", lost, launches)
	}
}
