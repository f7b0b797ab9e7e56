package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"flep/internal/trace"
)

func newTestFleet(t *testing.T, cfg FleetConfig) (*Fleet, *httptest.Server) {
	t.Helper()
	if len(cfg.Benchmarks) == 0 {
		cfg.Benchmarks = []string{"VA", "MM"}
	}
	f, err := NewFleetWithSystem(testSystem(t), cfg)
	if err != nil {
		t.Fatalf("NewFleetWithSystem: %v", err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			t.Errorf("fleet shutdown: %v", err)
		}
	})
	return f, ts
}

// pinnedFleet is the four-shard fleet pin_test.go's placement properties
// run on.
func pinnedFleet(t *testing.T, cfg Config) (*Fleet, *httptest.Server) {
	t.Helper()
	return newTestFleet(t, FleetConfig{Config: cfg, Devices: 4})
}

// TestFleetSpreadsLoadAcrossShards checks the placement router: with all
// shards parked, successive anonymous launches (unpinned) must land on
// successively less-loaded shards — an even spread — rather than piling
// onto shard 0.
func TestFleetSpreadsLoadAcrossShards(t *testing.T) {
	const devices = 4
	f, ts := newTestFleet(t, FleetConfig{Devices: devices})
	if err := f.Pause(); err != nil {
		t.Fatal(err)
	}

	results := make(chan LaunchResult, 2*devices)
	for i := 0; i < 2*devices; i++ {
		go func() {
			_, res := launch(t, ts.URL, LaunchRequest{Benchmark: "VA", Class: "small"})
			results <- res
		}()
		// Wait until this launch is visibly queued before firing the next,
		// so every placement sees the previous one's load.
		waitFor(t, "launch queued", func() bool {
			return getStatus(t, ts.URL).QueueLen == i+1
		})
	}

	st := getStatus(t, ts.URL)
	if len(st.Devices) != devices {
		t.Fatalf("status lists %d devices, want %d", len(st.Devices), devices)
	}
	for i, d := range st.Devices {
		if d.Device != i {
			t.Fatalf("devices[%d] carries index %d", i, d.Device)
		}
		if d.QueueLen != 2 {
			t.Fatalf("shard %d queued %d launches, want 2 (router did not spread)", i, d.QueueLen)
		}
	}

	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	perDev := map[int]int{}
	for i := 0; i < 2*devices; i++ {
		res := <-results
		if res.Err != "" {
			t.Fatalf("launch failed: %+v", res)
		}
		perDev[res.Device]++
	}
	for i := 0; i < devices; i++ {
		if perDev[i] != 2 {
			t.Fatalf("device %d executed %d launches, want 2 (spread %v)", i, perDev[i], perDev)
		}
	}
}

// TestFleetSessionAffinityPinsClients checks that a named client's launches
// go to its ring home whatever the load: alice's third launch joins her
// two queued ones while the other shard idles, carol (homed on the other
// shard) runs there, and the merged session view attributes each client
// to exactly one shard.
func TestFleetSessionAffinityPinsClients(t *testing.T) {
	f, ts := newTestFleet(t, FleetConfig{Devices: 2})
	home := map[string]int{"alice": f.ring.Home("alice"), "carol": f.ring.Home("carol")}
	if home["alice"] == home["carol"] {
		t.Fatalf("alice and carol share home shard %d; the test needs two", home["alice"])
	}
	if err := f.Pause(); err != nil {
		t.Fatal(err)
	}
	results := make(chan LaunchResult, 4)
	for i := 0; i < 3; i++ {
		go func() {
			_, res := launch(t, ts.URL, LaunchRequest{Client: "alice", Benchmark: "VA"})
			results <- res
		}()
		waitFor(t, "alice queued", func() bool { return getStatus(t, ts.URL).QueueLen == i+1 })
	}
	if q := getStatus(t, ts.URL).Devices[home["alice"]].QueueLen; q != 3 {
		t.Fatalf("alice's home shard queued %d launches, want all 3", q)
	}
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	_, res := launch(t, ts.URL, LaunchRequest{Client: "carol", Benchmark: "MM"})
	results <- res
	for i := 0; i < 4; i++ {
		res := <-results
		if res.Err != "" || res.Device != home[res.Client] {
			t.Fatalf("%s's launch ran on device %d (%+v), want its home %d", res.Client, res.Device, res, home[res.Client])
		}
	}

	// The merged session view attributes each client to exactly one shard.
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sessions []SessionSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions: %+v", sessions)
	}
	for _, snap := range sessions {
		if len(snap.Devices) != 1 || snap.Devices[0] != home[snap.ID] {
			t.Fatalf("session %s touched devices %v, want its home %d only", snap.ID, snap.Devices, home[snap.ID])
		}
	}
}

// TestFleetSpreadsAnonymousBurst checks that anonymous launches are not a
// session: a concurrent burst of them on a parked fleet queues on every
// shard instead of following the first one.
func TestFleetSpreadsAnonymousBurst(t *testing.T) {
	const devices, burst = 4, 8
	f, ts := pinnedFleet(t, Config{})
	if err := f.Pause(); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, burst)
	for i := 0; i < burst; i++ {
		go func() {
			code, _ := launch(t, ts.URL, LaunchRequest{Benchmark: "VA", Class: "trivial"})
			done <- code
		}()
	}
	waitFor(t, "burst queued", func() bool { return getStatus(t, ts.URL).QueueLen == burst })
	for i, d := range getStatus(t, ts.URL).Devices {
		if d.QueueLen == 0 {
			t.Errorf("shard %d of %d queued none of the anonymous burst", i, devices)
		}
	}
	if err := f.Resume(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < burst; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("anonymous launch: code %d", code)
		}
	}
}

// TestFleetAnonymousGraphsLandWholeAndSpread checks that an anonymous
// client's graphs pin by graph, not by the shared anonymous name: each of
// 16 graphs runs whole on one shard, and together they use more than one.
func TestFleetAnonymousGraphsLandWholeAndSpread(t *testing.T) {
	_, ts := pinnedFleet(t, Config{})
	used := map[int]bool{}
	for g := 0; g < 16; g++ {
		req := LaunchRequest{Benchmark: "VA", Class: "trivial", TimeoutMS: 2000,
			Graph: fmt.Sprintf("g%d", g), Stages: 2, Stage: "a"}
		code, a := launch(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("graph g%d stage a: code %d (%+v)", g, code, a)
		}
		req.Stage, req.After = "b", []string{"a"}
		code, b := launch(t, ts.URL, req)
		if code != http.StatusOK || b.Device != a.Device {
			t.Fatalf("graph g%d: stage a on device %d, stage b code %d on device %d", g, a.Device, code, b.Device)
		}
		used[a.Device] = true
	}
	if len(used) < 2 {
		t.Fatalf("16 anonymous graphs all ran on devices %v, want more than one", used)
	}
}

// TestFleetMetricsReconcileWithStatus drives load across 4 shards and
// checks the exposition end to end: every sample carries a device label,
// per-device launch counters match that shard's /v1/status numbers, and
// the device sums match the fleet aggregate exactly.
func TestFleetMetricsReconcileWithStatus(t *testing.T) {
	const devices = 4
	_, ts := newTestFleet(t, FleetConfig{Devices: devices})

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bench := []string{"VA", "MM"}[i%2]
			_, res := launch(t, ts.URL, LaunchRequest{
				Client: fmt.Sprintf("c%d", i%3), Benchmark: bench, Priority: 1 + i%2,
			})
			if res.Err != "" {
				t.Errorf("launch %d: %+v", i, res)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitFor(t, "fleet at rest", func() bool {
		st := getStatus(t, ts.URL)
		return st.Counters.Completed+st.Counters.SubmitErrors == st.Counters.Enqueued
	})

	st := getStatus(t, ts.URL)
	snap := scrape(t, ts.URL)
	var sumEnq, sumDone float64
	for i := 0; i < devices; i++ {
		dev := strconv.Itoa(i)
		enq := snap.SumMatching("flep_server_launches_total", "device", dev, "outcome", "enqueued")
		done := snap.SumMatching("flep_server_launches_total", "device", dev, "outcome", "completed")
		ds := st.Devices[i]
		if int64(enq) != ds.Counters.Enqueued || int64(done) != ds.Counters.Completed {
			t.Fatalf("device %d: metrics (enq=%v done=%v) != status %+v", i, enq, done, ds.Counters)
		}
		sumEnq += enq
		sumDone += done
	}
	if int64(sumEnq) != st.Counters.Enqueued || int64(sumDone) != st.Counters.Completed {
		t.Fatalf("device sums (enq=%v done=%v) != aggregate %+v", sumEnq, sumDone, st.Counters)
	}
	if st.Counters.Completed != 12 {
		t.Fatalf("completed = %d, want 12", st.Counters.Completed)
	}
	// The runtime families aggregate the same way: every shard dispatched
	// what it completed.
	if disp := snap.SumMatching("flep_runtime_dispatches_total"); disp < 12 {
		t.Fatalf("runtime dispatches across devices = %v, want >= 12", disp)
	}
}

// TestFleetEndToEndDrainExactlyOnce is the fleet e2e: 4 shards, a burst of
// concurrent clients, a drain racing the tail of the load, and fleet-wide
// exactly-once accounting at rest. Every accepted launch must deliver
// exactly one result — (device, id) identifies an invocation fleet-wide,
// since each shard numbers its own — and the summed counters must balance.
// CI runs this under -race.
func TestFleetEndToEndDrainExactlyOnce(t *testing.T) {
	const devices = 4
	const clients = 24
	const perClient = 3
	f, ts := newTestFleet(t, FleetConfig{
		Config:  Config{QueueDepth: 64, RequestTimeout: time.Minute, Trace: true},
		Devices: devices,
	})
	ts.Config.SetKeepAlivesEnabled(false)

	type devID struct{ device, id int }
	var mu sync.Mutex
	seen := map[devID]int{}
	var accepted, rejected int

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("c%03d", c)
			for i := 0; i < perClient; i++ {
				code, res := launch(t, ts.URL, LaunchRequest{
					Client:    client,
					Benchmark: []string{"VA", "MM"}[(c+i)%2],
					Priority:  1 + (c+i)%2,
				})
				switch code {
				case http.StatusOK:
					mu.Lock()
					seen[devID{res.Device, res.ID}]++
					accepted++
					mu.Unlock()
				case http.StatusServiceUnavailable:
					// Landed after the drain began.
					mu.Lock()
					rejected++
					mu.Unlock()
					return
				default:
					t.Errorf("%s: code %d (%+v)", client, code, res)
					return
				}
			}
		}(c)
	}

	// Start the drain while the burst is in flight: accepted launches must
	// still run to completion; late arrivals get 503.
	waitFor(t, "some launches accepted", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return accepted >= clients
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.Shutdown(ctx); err != nil {
		t.Fatalf("fleet shutdown: %v", err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for id, n := range seen {
		if n != 1 {
			t.Fatalf("invocation %+v delivered %d results", id, n)
		}
	}
	c := f.Status().Counters
	if c.Completed+c.SubmitErrors != c.Enqueued {
		t.Fatalf("fleet exactly-once violated at rest: %+v", c)
	}
	if c.Completed != int64(accepted) {
		t.Fatalf("fleet completed %d != client-observed %d (rejected %d)", c.Completed, accepted, rejected)
	}
	for i := 0; i < devices; i++ {
		sc := f.Shard(i).Counters()
		if sc["completed"]+sc["submit_errors"] != sc["enqueued"] {
			t.Fatalf("device %d exactly-once violated: %v", i, sc)
		}
	}

	// The merged trace is time-ordered and device-stamped.
	entries, _ := f.TraceEntries("", 0)
	if len(entries) == 0 {
		t.Fatal("fleet trace is empty")
	}
	for i, e := range entries {
		if e.Device < 0 || e.Device >= devices {
			t.Fatalf("trace entry %d carries device %d", i, e.Device)
		}
		if i > 0 && e.Time < entries[i-1].Time {
			t.Fatalf("trace entry %d out of order: %v after %v", i, e.Time, entries[i-1].Time)
		}
	}

	// Post-drain launches are refused.
	code, _ := launch(t, ts.URL, LaunchRequest{Benchmark: "VA"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain launch code = %d, want 503", code)
	}
}

// Regression for the /v1/trace fleet aggregation: per-shard streams must
// merge into one global timestamp order with the documented (Time,
// Device) tie-break and per-shard append order preserved — not merely
// concatenate. The merge itself now lives in trace.Merge (shared with
// the cluster gateway); this pins the fleet-facing contract.
func TestMergeTraceEntriesGlobalOrder(t *testing.T) {
	e := func(dev int, at time.Duration, kind string) trace.Entry {
		return trace.Entry{Time: at, Device: dev, Source: "runtime", Kind: kind}
	}
	streams := [][]trace.Entry{
		{e(0, 10, "a"), e(0, 30, "b"), e(0, 30, "c"), e(0, 90, "d")},
		{e(1, 5, "e"), e(1, 30, "f"), e(1, 60, "g")},
		{}, // a shard that recorded nothing
		{e(3, 30, "h"), e(3, 95, "i")},
	}
	got := trace.Merge(streams)
	var want []string
	// t=5:e(d1); t=10:a(d0); t=30 ties by device then append order:
	// b,c(d0), f(d1), h(d3); t=60:g; t=90:d; t=95:i.
	for _, k := range []string{"e", "a", "b", "c", "f", "h", "g", "d", "i"} {
		want = append(want, k)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Kind != w {
			order := make([]string, len(got))
			for j := range got {
				order[j] = got[j].Kind
			}
			t.Fatalf("position %d: got %q, want %q (full order %v)", i, got[i].Kind, w, order)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("entry %d out of time order", i)
		}
		if got[i].Time == got[i-1].Time && got[i].Device < got[i-1].Device {
			t.Fatalf("entry %d violates the device tie-break", i)
		}
	}

	// Stream order must not matter: the same shards handed over in a
	// different slice order merge to the identical sequence.
	shuffled := [][]trace.Entry{streams[3], streams[1], streams[0], streams[2]}
	got2 := trace.Merge(shuffled)
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("merge depends on stream order at %d: %+v vs %+v", i, got[i], got2[i])
		}
	}
}
