package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/obs"
	"flep/internal/replay"
	"flep/internal/server"
	"flep/internal/trace"
)

// One shared system: the offline phase is deterministic and expensive,
// so every test reuses it (fleets clone it per shard).
var (
	sysOnce sync.Once
	sysInst *core.System
	sysErr  error
)

func testSystem(t *testing.T) *core.System {
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

// startNode runs one real flepd-equivalent fleet behind an httptest
// server. The returned shutdown func is idempotent (tests that kill the
// node mid-run call it early; cleanup calls it again harmlessly).
func startNode(t *testing.T, cfg server.Config) (*server.Fleet, *httptest.Server, func()) {
	t.Helper()
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = []string{"VA", "MM"}
	}
	f, err := server.NewFleetWithSystem(testSystem(t), server.FleetConfig{Config: cfg, Devices: 1})
	if err != nil {
		t.Fatalf("NewFleetWithSystem: %v", err)
	}
	ts := httptest.NewServer(f.Handler())
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ts.CloseClientConnections()
			ts.Close()
		})
	}
	t.Cleanup(func() {
		stop()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			t.Errorf("fleet shutdown: %v", err)
		}
	})
	return f, ts, stop
}

// startGateway builds a Gateway over the node URLs and serves it.
func startGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 10 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	g.Start()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	// Every node, not just the first: a named client's first launch must
	// find its ring-home node probed ready or it is placed elsewhere.
	waitFor(t, "all nodes ready", func() bool { return g.ReadyNodes() == len(cfg.Nodes) })
	return g, ts
}

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

// launchVia POSTs one launch through the gateway and returns the status
// code, decoded result, and the serving node from X-Flep-Node.
func launchVia(t *testing.T, gwURL string, req server.LaunchRequest) (int, server.LaunchResult, string) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(gwURL+"/v1/launch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/launch: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Values("Content-Type"); len(ct) != 1 || ct[0] != "application/json" {
		t.Fatalf("launch answered (code %d) with Content-Type %q", resp.StatusCode, ct)
	}
	var res server.LaunchResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode launch response (code %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, res, resp.Header.Get("X-Flep-Node")
}

func getClusterStatus(t *testing.T, gwURL string) ClusterStatus {
	t.Helper()
	var cs ClusterStatus
	if err := getJSON(http.DefaultClient, gwURL+"/v1/status", &cs); err != nil {
		t.Fatalf("GET /v1/status: %v", err)
	}
	return cs
}

func getNodes(t *testing.T, gwURL string) []NodeStatus {
	t.Helper()
	var ns []NodeStatus
	if err := getJSON(http.DefaultClient, gwURL+"/v1/nodes", &ns); err != nil {
		t.Fatalf("GET /v1/nodes: %v", err)
	}
	return ns
}

func TestLaunchRoutingAffinityAndSpread(t *testing.T) {
	_, n0, _ := startNode(t, server.Config{})
	_, n1, _ := startNode(t, server.Config{})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})

	// A named client's launches all land on one node (consistent hash).
	var home string
	for i := 0; i < 5; i++ {
		code, res, node := launchVia(t, gw.URL, server.LaunchRequest{Client: "alice", Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("launch %d: code %d (%+v)", i, code, res)
		}
		if node == "" {
			t.Fatal("missing X-Flep-Node header")
		}
		if home == "" {
			home = node
		} else if node != home {
			t.Fatalf("client alice moved from %s to %s with all nodes healthy", home, node)
		}
	}

	// Enough distinct clients hit both nodes.
	hit := map[string]bool{}
	for i := 0; i < 32; i++ {
		code, _, node := launchVia(t, gw.URL, server.LaunchRequest{Client: fmt.Sprintf("c%d", i), Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("client c%d: code %d", i, code)
		}
		hit[node] = true
	}
	if len(hit) != 2 {
		t.Fatalf("32 clients landed on %d node(s): %v", len(hit), hit)
	}

	// Anonymous launches spread too (load/rotation placement) — eventually:
	// a health probe that snapshots a node mid-launch leaves its
	// status-derived load at 1 until the next probe, and a handful of
	// sequential launches can all finish on the other node inside that
	// window.
	hit = map[string]bool{}
	waitFor(t, "anonymous launches to land on both nodes", func() bool {
		code, _, node := launchVia(t, gw.URL, server.LaunchRequest{Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("anonymous launch: code %d", code)
		}
		hit[node] = true
		return len(hit) == 2
	})
}

func TestStatusSessionsAndNodesAggregation(t *testing.T) {
	f0, n0, _ := startNode(t, server.Config{Policy: "edf"})
	f1, n1, _ := startNode(t, server.Config{Policy: "edf"})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})

	ok := 0
	home := map[string]string{} // serving node → one client homed there
	for i := 0; i < 20; i++ {
		client := fmt.Sprintf("c%d", i)
		code, _, node := launchVia(t, gw.URL, server.LaunchRequest{Client: client, Benchmark: "VA"})
		if code == http.StatusOK {
			ok++
			home[node] = client
		}
	}
	if ok != 20 {
		t.Fatalf("only %d/20 launches succeeded", ok)
	}

	cs := getClusterStatus(t, gw.URL)
	want := f0.Status().Counters.Enqueued + f1.Status().Counters.Enqueued
	if cs.Counters.Enqueued != want {
		t.Fatalf("aggregated enqueued = %d, want %d", cs.Counters.Enqueued, want)
	}
	if cs.Counters.Enqueued != cs.Counters.Completed+cs.Counters.SubmitErrors {
		t.Fatalf("cluster not at rest: %+v", cs.Counters)
	}
	if !cs.ExactlyOnceOK {
		t.Fatalf("exactly-once flag false: %+v", cs.Counters)
	}
	if len(cs.Nodes) != 2 {
		t.Fatalf("nodes detail has %d entries", len(cs.Nodes))
	}

	// Gateway accounting reconciles per node: every enqueued launch on a
	// node produced exactly one gateway-relayed terminal response. The
	// /v1/nodes status snapshot comes from the health loop's cache, so
	// wait one refresh.
	waitFor(t, "status cache to catch up", func() bool {
		var total int64
		for _, ns := range getNodes(t, gw.URL) {
			if ns.Status != nil {
				total += ns.Status.Counters.Enqueued
			}
		}
		return total == want
	})
	for _, ns := range getNodes(t, gw.URL) {
		if ns.Status == nil {
			t.Fatalf("node %s has no cached status", ns.ID)
		}
		gwTotal := ns.Accepted + ns.Failed + ns.TimedOut
		if gwTotal != ns.Status.Counters.Enqueued {
			t.Fatalf("node %s: gateway terminal responses %d != node enqueued %d",
				ns.ID, gwTotal, ns.Status.Counters.Enqueued)
		}
	}

	// Sessions merge across nodes, each naming its serving node.
	var sessions []ClusterSession
	if err := getJSON(http.DefaultClient, gw.URL+"/v1/sessions", &sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 20 {
		t.Fatalf("merged sessions = %d, want 20", len(sessions))
	}
	for _, s := range sessions {
		if len(s.Nodes) != 1 {
			t.Fatalf("session %s served by %v, want exactly one node", s.ID, s.Nodes)
		}
		if s.Completed != 1 {
			t.Fatalf("session %s completed=%d", s.ID, s.Completed)
		}
	}

	// The gateway's aggregate is the fleet's: everything a node's status
	// and sessions carry survives the hop. Drive the SLO tier and the
	// model tier on both nodes — an anonymous (load-placed, so two-node)
	// LC/BE mix with one hopeless deadline, and a diamond graph from one
	// client homed on each node — then compare against server.MergeStatus
	// and SessionSnapshot.Merge of the nodes' own bodies.
	if len(home) != 2 {
		t.Fatalf("20 clients homed on %d node(s); test vacuous", len(home))
	}
	for i := 0; i < 12; i++ {
		req := server.LaunchRequest{Benchmark: "VA"}
		if i%2 == 0 {
			req.DeadlineMS = 2000
		}
		if code, res, _ := launchVia(t, gw.URL, req); code != http.StatusOK {
			t.Fatalf("anonymous launch %d: code %d (%+v)", i, code, res)
		}
	}
	if code, res, _ := launchVia(t, gw.URL, server.LaunchRequest{Benchmark: "MM", Class: "large", DeadlineMS: 1}); code != http.StatusOK || res.SLO != "missed" {
		t.Fatalf("large MM on a 1ms budget: code %d, %+v; want a completed miss", code, res)
	}
	var wg sync.WaitGroup
	for _, client := range home {
		base := server.LaunchRequest{Client: client, Graph: "g", Stages: 4, Model: "diamond"}
		for _, st := range []struct {
			stage, bench string
			after        []string
		}{
			{"pre", "VA", nil},
			{"left", "MM", []string{"pre"}},
			{"right", "VA", []string{"pre"}},
			{"post", "VA", []string{"left", "right"}},
		} {
			req := base
			req.Stage, req.Benchmark, req.After = st.stage, st.bench, st.after
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, _ := json.Marshal(req)
				resp, err := http.Post(gw.URL+"/v1/launch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("stage %s/%s: %v", req.Client, req.Stage, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("stage %s/%s: code %d", req.Client, req.Stage, resp.StatusCode)
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every launch above has answered, so both nodes are at rest: the
	// node bodies read here are the ones the gateway merges.
	nodeStatus := make([]server.Status, 2)
	nodeSessions := make([][]server.SessionSnapshot, 2)
	for i, n := range []*httptest.Server{n0, n1} {
		if err := getJSON(http.DefaultClient, n.URL+"/v1/status", &nodeStatus[i]); err != nil {
			t.Fatal(err)
		}
		if err := getJSON(http.DefaultClient, n.URL+"/v1/sessions", &nodeSessions[i]); err != nil {
			t.Fatal(err)
		}
	}
	wantStatus := server.MergeStatus(nodeStatus)
	got := getClusterStatus(t, gw.URL).Status
	// The gateway's own: its uptime, and -1 for "no single device".
	got.UptimeMS, wantStatus.UptimeMS = 0, 0
	wantStatus.Device = -1
	if !reflect.DeepEqual(got, wantStatus) {
		t.Fatalf("gateway status != MergeStatus of the node statuses:\n got  %+v\n want %+v", got, wantStatus)
	}
	if got.SLO.Attained == 0 || got.SLO.Missed == 0 || got.Counters.SLOMissed == 0 || got.SLO.MeanMarginUS == 0 {
		t.Fatalf("SLO tier lost at the gateway: slo %+v counters %+v", got.SLO, got.Counters)
	}
	if len(got.Models) != 1 || got.Models[0].Model != "diamond" || got.Models[0].GraphsCompleted != 2 || got.Models[0].StagesCompleted != 8 {
		t.Fatalf("models block lost or unmerged at the gateway: %+v", got.Models)
	}

	wantSessions := map[string]*server.SessionSnapshot{}
	for _, snaps := range nodeSessions {
		for _, snap := range snaps {
			if m := wantSessions[snap.ID]; m != nil {
				m.Merge(snap)
			} else {
				snap := snap
				wantSessions[snap.ID] = &snap
			}
		}
	}
	sessions = nil
	if err := getJSON(http.DefaultClient, gw.URL+"/v1/sessions", &sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != len(wantSessions) {
		t.Fatalf("merged sessions = %d, want %d", len(sessions), len(wantSessions))
	}
	for _, s := range sessions {
		if !reflect.DeepEqual(s.SessionSnapshot, *wantSessions[s.ID]) {
			t.Fatalf("session %s != Merge of the node snapshots:\n got  %+v\n want %+v", s.ID, s.SessionSnapshot, *wantSessions[s.ID])
		}
		if s.ID == "anonymous" && (len(s.Nodes) != 2 || s.SLOAttained == 0 || s.SLOMissed != 1 || s.MeanSLOMarginUS == 0) {
			t.Fatalf("anonymous session did not merge across both nodes with its SLO accounting: %+v", s)
		}
	}

	// One rule for aggregate paused, the fleet's: only when every part is.
	if err := f0.Pause(); err != nil {
		t.Fatal(err)
	}
	if getClusterStatus(t, gw.URL).Paused {
		t.Fatal("cluster reports paused with one node still running")
	}
	if err := f1.Pause(); err != nil {
		t.Fatal(err)
	}
	if !getClusterStatus(t, gw.URL).Paused {
		t.Fatal("cluster not paused with every node paused")
	}
	for _, f := range []*server.Fleet{f0, f1} {
		if err := f.Resume(); err != nil {
			t.Fatal(err)
		}
	}
}

// A node killed mid-burst must not lose or duplicate a single client
// response: every launch either completed on the dead node before the
// kill or was retried onto a survivor, and on the survivor the gateway's
// terminal-response ledger reconciles exactly with the node's counters.
func TestNodeKilledMidBurstExactlyOnce(t *testing.T) {
	// Pace slows the victim's event loop so a kill lands mid-burst with
	// requests genuinely in flight.
	_, n0, stop0 := startNode(t, server.Config{Pace: 100 * time.Microsecond})
	_, n1, _ := startNode(t, server.Config{Pace: 100 * time.Microsecond})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})

	const burst = 40
	var wg sync.WaitGroup
	codes := make([]int, burst)
	started := make(chan struct{}, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(server.LaunchRequest{Client: fmt.Sprintf("burst-%d", i), Benchmark: "VA"})
			started <- struct{}{}
			resp, err := http.Post(gw.URL+"/v1/launch", "application/json", bytes.NewReader(body))
			if err != nil {
				return // codes[i] stays 0
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	for i := 0; i < burst; i++ {
		<-started
	}
	// Kill node 0 while the burst is in flight.
	time.Sleep(20 * time.Millisecond)
	stop0()
	wg.Wait()

	okCount := 0
	for i, c := range codes {
		if c == http.StatusOK {
			okCount++
		} else {
			t.Errorf("launch %d finished with code %d, want 200 (failover should absorb the kill)", i, c)
		}
	}

	// Let the gateway notice the kill (on a fast host the burst can finish
	// before it, and then only the next health probe finds the node gone),
	// the survivor finish any retried work, and the health loop's cached
	// status catch up with the gateway's live ledger; then reconcile.
	waitFor(t, "the kill noticed and the survivor's status at rest and current", func() bool {
		ready, atRest := 0, 0
		for _, ns := range getNodes(t, gw.URL) {
			if ns.State != "ready" {
				continue
			}
			ready++
			if ns.Status == nil {
				continue
			}
			c := ns.Status.Counters
			if ns.InFlight == 0 && c.Enqueued == c.Completed+c.SubmitErrors &&
				c.Enqueued == ns.Accepted+ns.Failed+ns.TimedOut {
				atRest++
			}
		}
		return ready == 1 && atRest == 1
	})
	var acceptedTotal int64
	survivors := 0
	for _, ns := range getNodes(t, gw.URL) {
		acceptedTotal += ns.Accepted
		if ns.State != "ready" {
			continue
		}
		survivors++
		c := ns.Status.Counters
		if got := ns.Accepted + ns.Failed + ns.TimedOut; got != c.Enqueued {
			t.Fatalf("survivor %s: gateway ledger %d != enqueued %d", ns.ID, got, c.Enqueued)
		}
	}
	if survivors != 1 {
		t.Fatalf("survivors = %d, want 1", survivors)
	}
	if acceptedTotal != int64(okCount) {
		t.Fatalf("client OKs %d != gateway accepted %d", okCount, acceptedTotal)
	}
}

// When every node answers 429, the gateway must answer 429 — with the
// LARGEST backend Retry-After, so an honest client backs off long enough
// for the slowest node to clear.
func TestAllNodesSaturatedPropagatesMaxRetryAfter(t *testing.T) {
	stub := func(retryAfter string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"policy":"hpf","counters":{}}`))
		})
		mux.HandleFunc("POST /v1/launch", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", retryAfter)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"queue full"}`))
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	s0, s1 := stub("2"), stub("7")
	_, gw := startGateway(t, Config{Nodes: []string{s0.URL, s1.URL}})

	body, _ := json.Marshal(server.LaunchRequest{Client: "c", Benchmark: "VA"})
	resp, err := http.Post(gw.URL+"/v1/launch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want the max backend value 7", ra)
	}
	snap := metricsSnapshot(t, gw.URL)
	if v := snap.SumMatching("flep_gateway_rejected_saturated_total"); v != 1 {
		t.Fatalf("flep_gateway_rejected_saturated_total = %v, want 1", v)
	}
}

// Draining a node stops new routing immediately, remaps exactly that
// node's sessions, waits out in-flight work, and finally removes it.
func TestDrainRemapsOnlyDrainedSessionsAndWaitsInflight(t *testing.T) {
	f0, n0, _ := startNode(t, server.Config{})
	_, n1, _ := startNode(t, server.Config{})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})

	// Pin 24 clients and remember their homes.
	const clients = 24
	home := map[string]string{}
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("pin-%d", i)
		code, _, node := launchVia(t, gw.URL, server.LaunchRequest{Client: id, Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("pin launch %s: code %d", id, code)
		}
		home[id] = node
	}

	// Hold one launch in flight on the drain victim so the drain has to
	// wait: park the victim's scheduler, then launch from a client homed
	// there — the request sits in its admission queue until Resume.
	victim := "n0"
	var inFlightClient string
	for id, n := range home {
		if n == victim {
			inFlightClient = id
			break
		}
	}
	if inFlightClient == "" {
		t.Fatal("no client homed on n0; test vacuous")
	}
	if err := f0.Pause(); err != nil {
		t.Fatal(err)
	}
	inflightDone := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(server.LaunchRequest{Client: inFlightClient, Benchmark: "MM"})
		resp, err := http.Post(gw.URL+"/v1/launch", "application/json", bytes.NewReader(body))
		if err != nil {
			inflightDone <- 0
			return
		}
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	waitFor(t, "long launch in flight", func() bool {
		for _, ns := range getNodes(t, gw.URL) {
			if ns.ID == victim && ns.InFlight > 0 {
				return true
			}
		}
		return false
	})

	resp, err := http.Post(gw.URL+"/v1/nodes/"+victim+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain code = %d, want 202", resp.StatusCode)
	}

	// While the held launch is in flight the node must sit in "draining",
	// not "removed" — drain waits for in-flight work.
	time.Sleep(50 * time.Millisecond) // give waitDrain several polls to (wrongly) remove it
	for _, ns := range getNodes(t, gw.URL) {
		if ns.ID == victim && ns.State == "removed" {
			t.Fatal("node removed while a launch was still in flight")
		}
	}

	// New launches for every pinned client: sessions homed on the victim
	// remap; everyone else stays put.
	remapped := 0
	for id, before := range home {
		if id == inFlightClient {
			continue // still busy on the draining node
		}
		code, _, node := launchVia(t, gw.URL, server.LaunchRequest{Client: id, Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("post-drain launch %s: code %d", id, code)
		}
		if before == victim {
			if node == victim {
				t.Fatalf("client %s still routed to draining node", id)
			}
			remapped++
		} else if node != before {
			t.Fatalf("client %s moved %s → %s though its home was not drained", id, before, node)
		}
	}
	if remapped == 0 {
		t.Fatal("no sessions were homed on the drained node; test vacuous")
	}

	if err := f0.Resume(); err != nil {
		t.Fatal(err)
	}
	if code := <-inflightDone; code != http.StatusOK {
		t.Fatalf("in-flight launch during drain finished %d, want 200", code)
	}
	waitFor(t, "drained node removed", func() bool {
		for _, ns := range getNodes(t, gw.URL) {
			if ns.ID == victim {
				return ns.State == "removed"
			}
		}
		return false
	})
}

func TestTraceMergedAcrossNodesInGlobalOrder(t *testing.T) {
	_, n0, _ := startNode(t, server.Config{Trace: true})
	_, n1, _ := startNode(t, server.Config{Trace: true})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})

	for i := 0; i < 12; i++ {
		code, _, _ := launchVia(t, gw.URL, server.LaunchRequest{Client: fmt.Sprintf("t%d", i), Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("launch %d: code %d", i, code)
		}
	}
	resp, err := http.Get(gw.URL + "/v1/trace?kind=submit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("merged trace is empty")
	}
	nodesSeen := map[string]bool{}
	lastTime := -1.0
	for i, e := range entries {
		node, _ := e["node"].(string)
		if node == "" {
			t.Fatalf("entry %d lacks a node stamp: %v", i, e)
		}
		nodesSeen[node] = true
		tm, _ := e["time_ns"].(float64)
		if tm < lastTime {
			// Equal times may interleave by node; strictly decreasing time
			// is a merge-order violation.
			t.Fatalf("entry %d out of global time order", i)
		}
		lastTime = tm
	}
	if len(nodesSeen) != 2 {
		t.Fatalf("trace covers %d node(s): %v", len(nodesSeen), nodesSeen)
	}
}

func metricsSnapshot(t *testing.T, gwURL string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(gwURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return snap
}

func TestMetricsCarryNodeLabelAndSumAcrossNodes(t *testing.T) {
	f0, n0, _ := startNode(t, server.Config{})
	f1, n1, _ := startNode(t, server.Config{})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})

	for i := 0; i < 10; i++ {
		code, _, _ := launchVia(t, gw.URL, server.LaunchRequest{Client: fmt.Sprintf("m%d", i), Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("launch %d: code %d", i, code)
		}
	}
	snap := metricsSnapshot(t, gw.URL)

	if nodes := snap.LabelValues("flep_server_launches_total", "node"); len(nodes) != 2 {
		t.Fatalf("node label values = %v, want two", nodes)
	}
	total := snap.SumMatching("flep_server_launches_total", "outcome", "enqueued")
	want := float64(f0.Status().Counters.Enqueued + f1.Status().Counters.Enqueued)
	if total != want {
		t.Fatalf("summed enqueued across nodes = %v, want %v", total, want)
	}
	perNode := snap.SumMatching("flep_server_launches_total", "outcome", "enqueued", "node", "n0") +
		snap.SumMatching("flep_server_launches_total", "outcome", "enqueued", "node", "n1")
	if perNode != total {
		t.Fatalf("per-node sums %v != total %v", perNode, total)
	}
	if v := snap.SumMatching("flep_gateway_accepted_total"); v != 10 {
		t.Fatalf("flep_gateway_accepted_total = %v, want 10", v)
	}
}

func TestGatewayRecorderCapturesAcceptedLaunches(t *testing.T) {
	_, n0, _ := startNode(t, server.Config{})
	path := filepath.Join(t.TempDir(), "gw.trace")
	rec, err := replay.NewRecorder(path, replay.Header{Source: replay.SourceFlepgw, Devices: 1},
		replay.RecorderOptions{WallClock: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL}, Recorder: rec})

	const launches = 6
	for i := 0; i < launches; i++ {
		code, _, _ := launchVia(t, gw.URL, server.LaunchRequest{Client: fmt.Sprintf("r%d", i), Benchmark: "VA"})
		if code != http.StatusOK {
			t.Fatalf("launch %d: code %d", i, code)
		}
	}
	// One rejected launch must NOT be recorded.
	if code, _, _ := launchVia(t, gw.URL, server.LaunchRequest{Benchmark: "NOPE"}); code != http.StatusBadRequest {
		t.Fatalf("invalid launch code = %d, want 400", code)
	}
	// A graph stage is recorded with its coordinates, or the trace replays
	// as unrelated launches with no models block.
	stage := server.LaunchRequest{
		Client: "r0", Benchmark: "VA", DeadlineMS: 2000,
		Model: "pair", Graph: "g", Stage: "b", After: []string{"a"}, Stages: 2,
	}
	first := stage
	first.Stage, first.After, first.DeadlineMS = "a", nil, 0
	for _, req := range []server.LaunchRequest{first, stage} {
		if code, res, _ := launchVia(t, gw.URL, req); code != http.StatusOK {
			t.Fatalf("stage %s: code %d (%+v)", req.Stage, code, res)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Source != replay.SourceFlepgw {
		t.Fatalf("trace source = %q", tr.Header.Source)
	}
	if len(tr.Records) != launches+2 {
		t.Fatalf("recorded %d launches, want %d", len(tr.Records), launches+2)
	}
	got := tr.Records[launches+1]
	want := stage.Record()
	want.Seq, want.At, want.Wall, want.Node, want.Device = got.Seq, got.At, got.Wall, "n0", 0
	if !reflect.DeepEqual(got, want) || got.Model != "pair" || got.GraphID != "g" || got.Stage != "b" ||
		len(got.After) != 1 || got.After[0] != "a" || got.SLOClass != "latency" {
		t.Fatalf("graph stage recorded as\n %+v\nwant\n %+v", got, want)
	}
	for i, r := range tr.Records {
		if r.Node != "n0" {
			t.Fatalf("record %d node = %q, want n0", i, r.Node)
		}
		if r.Bench != "VA" || r.Device < 0 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
	}
}

// An anonymous client has no home node, but its graph still has to meet
// itself: placing each stage by load sent stage b to the node that never
// saw stage a, where it parked until the handler gave up (504).
func TestAnonymousGraphCompletesThroughGateway(t *testing.T) {
	_, n0, _ := startNode(t, server.Config{})
	_, n1, _ := startNode(t, server.Config{})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})

	for i := 0; i < 4; i++ {
		req := server.LaunchRequest{
			Benchmark: "VA", Class: "trivial", TimeoutMS: 2000,
			Graph: fmt.Sprintf("g%d", i), Stage: "a", Stages: 2, Model: "pair",
		}
		code, res, home := launchVia(t, gw.URL, req)
		if code != http.StatusOK {
			t.Fatalf("graph %d stage a: code %d (%+v)", i, code, res)
		}
		req.Stage, req.After = "b", []string{"a"}
		code, res, node := launchVia(t, gw.URL, req)
		if code != http.StatusOK {
			t.Fatalf("graph %d stage b: code %d (%+v); stage a ran on %s", i, code, res, home)
		}
		if node != home {
			t.Fatalf("graph %d: stage a on %s, stage b on %s", i, home, node)
		}
	}
	st := getClusterStatus(t, gw.URL)
	if len(st.Models) != 1 || st.Models[0].GraphsCompleted != 4 || st.Models[0].StagesCompleted != 8 {
		t.Fatalf("models block: %+v, want 4 graphs and 8 stages completed", st.Models)
	}
}

// A graph's stages meet in its home node's dependency table, so a 429 from
// the home ends the walk: sending the stage on would park it on a node
// that never sees its prerequisites.
func TestGraphStageRefusedAtHomeStaysHome(t *testing.T) {
	f0, n0, _ := startNode(t, server.Config{DepPending: 1})
	f1, n1, _ := startNode(t, server.Config{DepPending: 1})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})
	code, res, home := launchVia(t, gw.URL, server.LaunchRequest{Client: "gc", Benchmark: "VA", Class: "trivial"})
	if code != http.StatusOK {
		t.Fatalf("first launch: code %d (%+v)", code, res)
	}
	homeFleet, homeURL, other := f0, n0.URL, f1
	if home == "n1" {
		homeFleet, homeURL, other = f1, n1.URL, f0
	}

	// Fill the home's one-stage dependency table with a stage whose
	// prerequisite never comes; canceling it at cleanup lets the node drain.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	filler, _ := json.Marshal(server.LaunchRequest{Client: "filler", Benchmark: "VA", Class: "trivial",
		Graph: "f", Stages: 2, Stage: "s2", After: []string{"s1"}})
	go func() {
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, homeURL+"/v1/launch", bytes.NewReader(filler))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "filler parked at home", func() bool {
		st := homeFleet.Status()
		return len(st.Models) == 1 && st.Models[0].StagesParked == 1
	})

	body, _ := json.Marshal(server.LaunchRequest{Client: "gc", Benchmark: "VA", Class: "trivial", TimeoutMS: 500,
		Graph: "g", Stages: 2, Stage: "b", After: []string{"a"}})
	resp, err := http.Post(gw.URL+"/v1/launch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("stage b: code %d, Retry-After %q; want the home's 429 with its hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if node := resp.Header.Get("X-Flep-Node"); node != home {
		t.Fatalf("stage b answered by %q, want its home %s", node, home)
	}
	if c := other.Status().Counters; c.Enqueued != 0 {
		t.Fatalf("the node that is not the graph's home enqueued %d launches, want 0", c.Enqueued)
	}
	if st := other.Status(); len(st.Models) != 0 {
		t.Fatalf("the node that is not the graph's home saw graph stages: %+v", st.Models)
	}
}

// A graph stage is tried on its home alone. The home answering 503 (it
// began draining after stage a ran there) ends the walk with the
// gateway's own 503: walking on parked stage b on the other node, which
// never saw stage a, until its timeout, and that node's 504 broke the
// gateway ledger (gw_timed_out 1 against 0 enqueued).
func TestGraphStageIsTriedOnlyOnItsHome(t *testing.T) {
	f0, n0, _ := startNode(t, server.Config{})
	f1, n1, _ := startNode(t, server.Config{})
	// No probe after the first: the gateway learns of the drain from the
	// home's 503, not from its health loop.
	gw, ts := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}, HealthInterval: time.Hour})
	stage := server.LaunchRequest{Client: "gc", Benchmark: "VA", Class: "trivial", TimeoutMS: 300,
		Graph: "g", Stages: 2, Stage: "a"}
	code, res, home := launchVia(t, ts.URL, stage)
	if code != http.StatusOK {
		t.Fatalf("stage a: code %d (%+v)", code, res)
	}
	homeFleet, other := f0, f1
	if home == "n1" {
		homeFleet, other = f1, f0
	}
	if err := homeFleet.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	stage.Stage, stage.After = "b", []string{"a"}
	if code, res, node := launchVia(t, ts.URL, stage); code != http.StatusServiceUnavailable || node != "" {
		t.Errorf("stage b: code %d from node %q (%+v), want the gateway's own 503", code, node, res)
	}
	if st := other.Status(); st.Counters.Enqueued != 0 || len(st.Models) != 0 {
		t.Errorf("the node that is not the graph's home holds the stage: enqueued %d, models %+v", st.Counters.Enqueued, st.Models)
	}
	fleets := map[string]*server.Fleet{"n0": f0, "n1": f1}
	for _, ns := range gw.Statuses() {
		if ledger, enq := ns.Accepted+ns.Failed+ns.TimedOut, fleets[ns.ID].Status().Counters.Enqueued; ledger != enq {
			t.Errorf("node %s: gateway ledger %d (accepted %d failed %d timed out %d) != enqueued %d",
				ns.ID, ledger, ns.Accepted, ns.Failed, ns.TimedOut, enq)
		}
	}
}

// GET /v1/benchmarks relays the catalog of the first node that answers,
// and answers 503 once none does.
func TestGatewayBenchmarksRelaysFirstAnsweringNode(t *testing.T) {
	_, n0, stop0 := startNode(t, server.Config{})
	_, n1, stop1 := startNode(t, server.Config{})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}, HealthInterval: time.Hour})
	var want []server.BenchmarkInfo
	if err := getJSON(http.DefaultClient, n1.URL+"/v1/benchmarks", &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || want[0].Name != "VA" && want[1].Name != "VA" {
		t.Fatalf("node catalog %+v, want VA and MM", want)
	}
	stop0()
	var got []server.BenchmarkInfo
	if err := getJSON(http.DefaultClient, gw.URL+"/v1/benchmarks", &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("with n0 gone: catalog %+v (%v), want n1's %+v", got, err, want)
	}
	stop1()
	resp, err := http.Get(gw.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("with no node answering: code %d, want 503", resp.StatusCode)
	}
}

// TestClientCancelIsNotANodeFailure: a client that hangs up while its
// launch waits in a paused node's queue fails the proxied request with it.
// That says nothing about the node, so the gateway marks no node down and
// walks to no other node on the client's behalf.
func TestClientCancelIsNotANodeFailure(t *testing.T) {
	f0, n0, _ := startNode(t, server.Config{})
	f1, n1, _ := startNode(t, server.Config{})
	g, err := New(Config{Nodes: []string{n0.URL, n1.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	// The handler's own return, not the client's, ends the walk under test.
	handled := make(chan struct{}, 1)
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		g.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/v1/launch" {
			handled <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		gw.Close()
		g.Close()
	})
	waitFor(t, "both nodes ready", func() bool { return g.ReadyNodes() == 2 })
	for _, f := range []*server.Fleet{f0, f1} {
		if err := f.Pause(); err != nil {
			t.Fatal(err)
		}
	}
	retries := metricsSnapshot(t, gw.URL).SumMatching("flep_gateway_retries_total")

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(server.LaunchRequest{Client: "gone", Benchmark: "VA", Class: "trivial"})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, gw.URL+"/v1/launch", bytes.NewReader(body))
	sent := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		sent <- err
	}()
	waitFor(t, "the launch queued at its home", func() bool { return f0.Status().QueueLen+f1.Status().QueueLen == 1 })
	cancel()
	if err := <-sent; err == nil {
		t.Fatal("the canceled launch was answered")
	}
	<-handled

	for _, n := range getNodes(t, gw.URL) {
		if n.State != "ready" || n.LastErr != "" {
			t.Errorf("node %s is %q (last error %q) after a client hung up, want ready with no error", n.ID, n.State, n.LastErr)
		}
	}
	if got := metricsSnapshot(t, gw.URL).SumMatching("flep_gateway_retries_total"); got != retries {
		t.Errorf("flep_gateway_retries_total went %v -> %v: the walk went on for a client that was gone", retries, got)
	}
}

func TestGatewayReadyzFollowsNodeHealth(t *testing.T) {
	// A gateway over one address nobody listens on is unready, not dead.
	g, gw := startGatewayUnchecked(t, Config{Nodes: []string{"127.0.0.1:1"}, HealthInterval: 10 * time.Millisecond})
	_ = g
	for _, want := range []struct {
		path string
		code int
	}{{"/healthz", 200}, {"/readyz", 503}} {
		resp, err := http.Get(gw.URL + want.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want.code {
			t.Fatalf("%s = %d, want %d", want.path, resp.StatusCode, want.code)
		}
	}

	// Launches are refused 503 while nothing is routable.
	code, _, _ := launchVia(t, gw.URL, server.LaunchRequest{Client: "x", Benchmark: "VA"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unroutable launch code = %d, want 503", code)
	}
}

// startGatewayUnchecked is startGateway without the readiness wait (for
// tests that exercise the not-ready path).
func startGatewayUnchecked(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	g.Start()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ts.Close()
		g.Close()
	})
	return g, ts
}

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		":7450":                 "http://127.0.0.1:7450",
		"localhost:7450":        "http://localhost:7450",
		"http://10.0.0.2:7450/": "http://10.0.0.2:7450",
		"https://gpu.example:1": "https://gpu.example:1",
		" 10.1.2.3:7450 ":       "http://10.1.2.3:7450",
	}
	for in, want := range cases {
		got, err := normalizeAddr(in)
		if err != nil || got != want {
			t.Fatalf("normalizeAddr(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := normalizeAddr("  "); err == nil {
		t.Fatal("empty address accepted")
	}
}

// TestTraceThroughGatewayHonoursLimitAndFormat checks the gateway answers
// /v1/trace with flepd's query surface: ?format=text&limit=3 is the last
// three merged entries as Entry.WriteText lines, and an unknown format is a
// 400 rather than a JSON 200.
func TestTraceThroughGatewayHonoursLimitAndFormat(t *testing.T) {
	_, n0, _ := startNode(t, server.Config{Trace: true})
	_, n1, _ := startNode(t, server.Config{Trace: true})
	_, gw := startGateway(t, Config{Nodes: []string{n0.URL, n1.URL}})
	for i := 0; i < 6; i++ {
		if code, _, _ := launchVia(t, gw.URL, server.LaunchRequest{Client: fmt.Sprintf("t%d", i), Benchmark: "VA"}); code != http.StatusOK {
			t.Fatalf("launch %d: code %d", i, code)
		}
	}
	get := func(query string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(gw.URL + "/v1/trace" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	_, all := get("")
	var entries []trace.Entry
	if err := json.Unmarshal(all, &entries); err != nil || len(entries) < 3 {
		t.Fatalf("merged trace: %d entries, %v", len(entries), err)
	}
	var want bytes.Buffer
	for _, e := range entries[len(entries)-3:] {
		if err := e.WriteText(&want); err != nil {
			t.Fatal(err)
		}
	}
	if code, got := get("?format=text&limit=3"); code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("?format=text&limit=3 answered %d:\n%s\nwant the last three entries as text:\n%s", code, got, want.Bytes())
	}
	if code, body := get("?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("?format=bogus answered %d (%s), want 400", code, body)
	}
}
