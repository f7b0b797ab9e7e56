// Live-vs-replay agreement: a real flepd daemon records its admission
// stream while serving concurrent tenants; the replayer then re-drives
// the trace through a fresh system and must land on exactly the same
// per-tenant tallies: completions, preemptions, mean NTT and SLO verdicts
// — the daemon's answers and the replay's summary come out of one
// function. Lives in the external test package because it imports the
// server (which imports replay).
package replay_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"flep/internal/metrics"
	"flep/internal/replay"
	"flep/internal/server"
)

func TestRecordReplayEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	cfg := server.Config{Policy: "hpf", Benchmarks: []string{"CFD", "VA"}}
	rec, err := replay.NewRecorder(path, cfg.RecorderHeader(1), replay.RecorderOptions{})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	cfg.Recorder = rec
	s, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())

	// Two closed-loop tenants in contention: the latency tenant's small
	// VA launches keep arriving while the batch tenant's large CFD
	// launches occupy the device, so HPF preempts.
	type spec struct {
		client, bench, class    string
		priority, n, deadlineMS int
	}
	specs := []spec{
		{"tenant-hi", "VA", "small", 2, 12, 1},
		{"tenant-lo", "CFD", "large", 1, 4, 0},
	}
	live := map[string]*metrics.Tally{}
	for _, sp := range specs {
		live[sp.client] = &metrics.Tally{}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sp := range specs {
		wg.Add(1)
		go func(sp spec) {
			defer wg.Done()
			for i := 0; i < sp.n; i++ {
				body, _ := json.Marshal(map[string]any{
					"client": sp.client, "benchmark": sp.bench,
					"class": sp.class, "priority": sp.priority, "deadline_ms": sp.deadlineMS,
				})
				resp, err := http.Post(ts.URL+"/v1/launch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("%s launch %d: %v", sp.client, i, err)
					return
				}
				var res server.LaunchResult
				derr := json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if derr != nil || resp.StatusCode != http.StatusOK || res.Err != "" {
					t.Errorf("%s launch %d: code=%d decode=%v err=%q", sp.client, i, resp.StatusCode, derr, res.Err)
					return
				}
				mu.Lock()
				live[sp.client].Add(res.Run())
				mu.Unlock()
			}
		}(sp)
	}
	wg.Wait()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("closing recorder: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}

	total := 0
	for _, sp := range specs {
		total += sp.n
	}
	tr, err := replay.Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if tr.Header.Source != replay.SourceFlepd {
		t.Fatalf("trace source %q", tr.Header.Source)
	}
	if len(tr.Records) != total {
		t.Fatalf("trace has %d records, live run admitted %d", len(tr.Records), total)
	}
	if !tr.Exact() {
		t.Fatal("flepd trace does not support exact replay")
	}

	rp, err := replay.NewReplayer(tr, replay.ReplayerOptions{})
	if err != nil {
		t.Fatalf("NewReplayer: %v", err)
	}
	sum, err := rp.Run(replay.ReplayConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Mode != replay.ModeExact {
		t.Fatalf("replay mode %q, want exact", sum.Mode)
	}
	if d := sum.Divergence; d.TePrediction+d.StepShortfall+d.Placement+d.SubmitErrors != 0 {
		t.Fatalf("exact replay diverged: %+v", d)
	}
	if sum.Completed != total {
		t.Fatalf("replay completed %d, live %d", sum.Completed, total)
	}

	replayed := map[string]replay.TenantSummary{}
	for _, ten := range sum.Tenants {
		replayed[ten.Client] = ten
	}
	for client, lv := range live {
		rv, ok := replayed[client]
		if !ok {
			t.Fatalf("replay lost tenant %s", client)
		}
		if int64(rv.Completed) != lv.Completed || int64(rv.Preempted) != lv.Preempted || int64(rv.Preemptions) != lv.Preemptions {
			t.Fatalf("tenant %s: live (completed=%d preempted=%d preemptions=%d) vs replay (completed=%d preempted=%d preemptions=%d)",
				client, lv.Completed, lv.Preempted, lv.Preemptions,
				rv.Completed, rv.Preempted, rv.Preemptions)
		}
		if lv.NTTN != lv.Completed || math.Abs(rv.MeanNTT-lv.ANTT()) > 1e-9*lv.ANTT() {
			t.Fatalf("tenant %s: live mean NTT %v over %d of %d launches, replayed %v",
				client, lv.ANTT(), lv.NTTN, lv.Completed, rv.MeanNTT)
		}
		if int64(rv.SLOAttained) != lv.Attained || int64(rv.SLOMissed) != lv.Missed {
			t.Fatalf("tenant %s: live SLO %d attained / %d missed, replayed %d / %d",
				client, lv.Attained, lv.Missed, rv.SLOAttained, rv.SLOMissed)
		}
	}
	if hi := live["tenant-hi"]; hi.Attained+hi.Missed != hi.Completed || live["tenant-lo"].Attained+live["tenant-lo"].Missed != 0 {
		t.Fatalf("only tenant-hi carries deadlines: tallies %+v and %+v", hi, live["tenant-lo"])
	}

	// The replayed trace also replays deterministically a second time.
	sum2, err := rp.Run(replay.ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(sum)
	b2, _ := json.Marshal(sum2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("exact replay not deterministic:\n%s\n%s", b1, b2)
	}
}
