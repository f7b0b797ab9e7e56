package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"flep/internal/server"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire from this run")

// wireTier is one serving tier under TestWireGoldens: the front door the
// scenes' own traffic goes through and, beside it, each part's own door,
// for set-up that has to land on every part (a shard or node that is not
// full accepts what a full one refused).
type wireTier struct {
	front    string
	parts    []string
	pause    func() error
	shutdown func(ctx context.Context) error
}

func serveWire(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func wireServer(t *testing.T, cfg server.Config) wireTier {
	s, err := server.NewWithSystem(testSystem(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	url := serveWire(t, s.Handler())
	return wireTier{front: url, parts: []string{url}, pause: s.Pause, shutdown: s.Shutdown}
}

func wireFleet(t *testing.T, cfg server.Config) wireTier {
	f, err := server.NewFleetWithSystem(testSystem(t), server.FleetConfig{Config: cfg, Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	tier := wireTier{front: serveWire(t, f.Handler()), pause: f.Pause, shutdown: f.Shutdown}
	for i := 0; i < f.Devices(); i++ {
		tier.parts = append(tier.parts, serveWire(t, f.Shard(i).Handler()))
	}
	return tier
}

// wireGateway fronts two one-shard nodes. The gateway knows them by fixed
// made-up addresses that its transport dials to the real listeners: the
// ring hashes addresses, so a client's home node is the same in every run.
// The health loop probes once at start and then stays out of the way.
func wireGateway(t *testing.T, cfg server.Config) wireTier {
	var fleets []*server.Fleet
	var tier wireTier
	dial := map[string]string{}
	var nodes []string
	for _, name := range []string{"wire-n0", "wire-n1"} {
		f, err := server.NewFleetWithSystem(testSystem(t), server.FleetConfig{Config: cfg, Devices: 1})
		if err != nil {
			t.Fatal(err)
		}
		url := serveWire(t, f.Handler())
		fleets, tier.parts = append(fleets, f), append(tier.parts, url)
		dial[name+":80"] = strings.TrimPrefix(url, "http://")
		nodes = append(nodes, "http://"+name)
	}
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, dial[addr])
	}}
	t.Cleanup(transport.CloseIdleConnections)
	g, err := New(Config{Nodes: nodes, HealthInterval: time.Hour, Client: &http.Client{Transport: transport}})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	tier.front = serveWire(t, g.Handler())
	waitFor(t, "both nodes ready", func() bool { return g.ReadyNodes() == len(nodes) })
	each := func(do func(f *server.Fleet) error) error {
		for _, f := range fleets {
			if err := do(f); err != nil {
				return err
			}
		}
		return nil
	}
	tier.pause = func() error { return each((*server.Fleet).Pause) }
	tier.shutdown = func(ctx context.Context) error {
		return each(func(f *server.Fleet) error { return f.Shutdown(ctx) })
	}
	return tier
}

// wirePost posts one launch and returns the status code (0 on a transport
// error); wirePostAsync does so from its own goroutine.
func wirePost(ctx context.Context, url string, req server.LaunchRequest) int {
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/launch", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func wirePostAsync(ctx context.Context, url string, req server.LaunchRequest) chan int {
	ch := make(chan int, 1)
	go func() { ch <- wirePost(ctx, url, req) }()
	return ch
}

// wireScene is a tier under one configuration, with what the scenes ask
// of it.
type wireScene struct {
	*testing.T
	wireTier
}

func (sc wireScene) status() server.Status {
	sc.Helper()
	var st server.Status
	if err := getJSON(http.DefaultClient, sc.front+"/v1/status", &st); err != nil {
		sc.Fatal(err)
	}
	return st
}

func (sc wireScene) expect(req server.LaunchRequest, want int) {
	sc.Helper()
	if code := wirePost(context.Background(), sc.front, req); code != want {
		sc.Fatalf("%+v: code %d, want %d", req, code, want)
	}
}

func (sc wireScene) expectAsync(what string, ch chan int, want int) {
	sc.Helper()
	if code := <-ch; code != want {
		sc.Fatalf("%s: code %d, want %d", what, code, want)
	}
}

func (sc wireScene) waitQueued(n int) {
	sc.Helper()
	waitFor(sc.T, "queued launches", func() bool { return sc.status().QueueLen == n })
}

func (sc wireScene) waitParked(n int64) {
	sc.Helper()
	waitFor(sc.T, "parked stages", func() bool {
		var parked int64
		for _, m := range sc.status().Models {
			parked += m.StagesParked
		}
		return parked == n
	})
}

// queueOnEveryPart pauses the tier and leaves req waiting in every part's queue.
func (sc wireScene) queueOnEveryPart(req server.LaunchRequest) []chan int {
	sc.Helper()
	if err := sc.pause(); err != nil {
		sc.Fatal(err)
	}
	var chs []chan int
	for i, part := range sc.parts {
		chs = append(chs, wirePostAsync(context.Background(), part, req))
		sc.waitQueued(i + 1)
	}
	return chs
}

// diamond submits one four-stage diamond out of order — the join, then the
// branches, each parked before the next is posted, then the root — and
// waits for all four to answer 200.
func (sc wireScene) diamond(client, model string, benches [4]string, joinClass string, joinDeadlineMS int) {
	sc.Helper()
	base := server.LaunchRequest{Client: client, Graph: "g", Stages: 4, Model: model}
	stage := func(name, bench string, after ...string) server.LaunchRequest {
		req := base
		req.Stage, req.Benchmark, req.After = name, bench, after
		return req
	}
	join := stage("post", benches[3], "left", "right")
	join.Class, join.DeadlineMS = joinClass, joinDeadlineMS
	var parked []chan int
	for i, req := range []server.LaunchRequest{join, stage("left", benches[1], "pre"), stage("right", benches[2], "pre")} {
		parked = append(parked, wirePostAsync(context.Background(), sc.front, req))
		sc.waitParked(int64(i) + 1)
	}
	sc.expect(stage("pre", benches[0]), http.StatusOK)
	for _, ch := range parked {
		sc.expectAsync("released stage of "+client, ch, http.StatusOK)
	}
}

// wireScenes is TestEveryOutcomeMovesOneFamilyInAllViews's request script
// (internal/server/ledger_test.go), one scene per launch outcome, then
// three model-graph scenes. Every scene ends at rest or paused, so what
// the tier reports is settled when it is read.
var wireScenes = []struct {
	name string
	cfg  server.Config
	run  func(sc wireScene)
}{
	{"200 completed", server.Config{}, func(sc wireScene) {
		sc.expect(wireTrivial, http.StatusOK)
	}},
	{"200 completed graph stage", server.Config{}, func(sc wireScene) {
		req := wireTrivial
		req.Graph, req.Stages, req.Stage = "g", 1, "only"
		sc.expect(req, http.StatusOK)
	}},
	{"422 oversized working set", server.Config{}, func(sc wireScene) {
		req := wireTrivial
		req.TasksOverride = 1 << 34
		sc.expect(req, http.StatusUnprocessableEntity)
	}},
	{"429 queue full", server.Config{QueueDepth: 1}, func(sc wireScene) {
		sc.queueOnEveryPart(server.LaunchRequest{Client: "filler", Benchmark: "VA", Class: "trivial"})
		sc.expect(wireTrivial, http.StatusTooManyRequests)
	}},
	// QueueDepth 2 makes the best-effort share one slot: one outstanding
	// deadline fills it.
	{"429 best-effort shed", server.Config{QueueDepth: 2}, func(sc wireScene) {
		sc.queueOnEveryPart(server.LaunchRequest{Client: "lc", Benchmark: "VA", Class: "trivial", DeadlineMS: 60000})
		sc.expect(wireTrivial, http.StatusTooManyRequests)
	}},
	{"503 draining", server.Config{}, func(sc wireScene) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sc.shutdown(ctx); err != nil {
			sc.Fatal(err)
		}
		sc.expect(wireTrivial, http.StatusServiceUnavailable)
	}},
	{"400 invalid", server.Config{}, func(sc wireScene) {
		sc.expect(server.LaunchRequest{Client: wireClient, Benchmark: "NOPE"}, http.StatusBadRequest)
	}},
	{"429 dep table full", server.Config{DepPending: 1}, func(sc wireScene) {
		parked := server.LaunchRequest{Client: "filler", Benchmark: "VA", Class: "trivial",
			Graph: "g", Stages: 3, Stage: "s2", After: []string{"s1"}}
		for i, part := range sc.parts {
			wirePostAsync(context.Background(), part, parked)
			sc.waitParked(int64(i) + 1)
		}
		req := wireTrivial
		req.Graph, req.Stages, req.Stage, req.After = "g", 3, "s3", []string{"s1"}
		sc.expect(req, http.StatusTooManyRequests)
	}},
	{"409 dep-canceled stage", server.Config{}, func(sc wireScene) {
		failed := wireTrivial
		failed.Graph, failed.Stages, failed.Stage, failed.TasksOverride = "g", 2, "a", 1<<34
		sc.expect(failed, http.StatusUnprocessableEntity)
		req := wireTrivial
		req.Graph, req.Stages, req.Stage, req.After = "g", 2, "b", []string{"a"}
		sc.expect(req, http.StatusConflict)
	}},
	{"504 timeout", server.Config{}, func(sc wireScene) {
		if err := sc.pause(); err != nil {
			sc.Fatal(err)
		}
		req := wireTrivial
		req.TimeoutMS = 20
		sc.expect(req, http.StatusGatewayTimeout)
	}},
	{"client cancel", server.Config{}, func(sc wireScene) {
		if err := sc.pause(); err != nil {
			sc.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		ch := wirePostAsync(ctx, sc.front, wireTrivial)
		sc.waitQueued(1)
		cancel()
		sc.expectAsync("canceled request", ch, 0)
		waitFor(sc.T, "cancel counted", func() bool { return sc.status().Counters.Canceled == 1 })
	}},
	// Two diamonds of one model whose clients land on different parts where
	// the tier has two, so the merged row's mean makespan is a weighted
	// mean; the second one's join misses a 1 ms budget.
	{"diamond graphs", server.Config{}, func(sc wireScene) {
		sc.diamond("dag-a", "diamond", [4]string{"VA", "MM", "VA", "VA"}, "small", 2000)
		sc.diamond("dag-c", "diamond", [4]string{"MM", "MM", "VA", "MM"}, "large", 1)
	}},
	{"shed cascade", server.Config{QueueDepth: 2}, func(sc wireScene) {
		fillers := sc.queueOnEveryPart(server.LaunchRequest{Client: "lc", Benchmark: "VA", Class: "small", DeadlineMS: 5000})
		base := server.LaunchRequest{Client: "dag2", Graph: "g", Stages: 3, Model: "cascade", Benchmark: "VA"}
		c, b, a := base, base, base
		c.Stage, c.After = "c", []string{"b"}
		b.Stage, b.After = "b", []string{"a"}
		a.Stage = "a"
		cCh := wirePostAsync(context.Background(), sc.front, c)
		sc.waitParked(1)
		bCh := wirePostAsync(context.Background(), sc.front, b)
		sc.waitParked(2)
		sc.expect(a, http.StatusTooManyRequests)
		sc.expectAsync("b", bCh, http.StatusConflict)
		sc.expectAsync("c", cCh, http.StatusConflict)
		// Shutdown unparks the loops and runs the fillers out.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sc.shutdown(ctx); err != nil {
			sc.Fatal(err)
		}
		for _, ch := range fillers {
			sc.expectAsync("LC filler", ch, http.StatusOK)
		}
	}},
	{"stalled graph eviction", server.Config{DepGraphs: 1}, func(sc wireScene) {
		g1 := server.LaunchRequest{Client: "bd", Benchmark: "VA", Graph: "g1", Stages: 3}
		s2, s1 := g1, g1
		s2.Stage, s2.After = "s2", []string{"s1"}
		s1.Stage = "s1"
		s2Ch := wirePostAsync(context.Background(), sc.front, s2)
		sc.waitParked(1)
		sc.expect(s1, http.StatusOK)
		sc.expectAsync("released s2", s2Ch, http.StatusOK)
		// g1 is stalled — two of three declared stages done, nothing parked
		// or in flight — so a new graph evicts it.
		sc.expect(server.LaunchRequest{Client: "bd", Benchmark: "VA", Graph: "g2", Stages: 1, Stage: "a"}, http.StatusOK)
	}},
}

const wireClient = "ledger"

var wireTrivial = server.LaunchRequest{Client: wireClient, Benchmark: "VA", Class: "trivial"}

// wireBody fetches path and returns it decoded with every number kept as
// written and the fields that read a real clock zeroed.
func wireBody(t *testing.T, url string) any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	var zero func(v any)
	zero = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				if k == "uptime_ms" || k == "first_seen_unix_ms" {
					v[k] = json.Number("0")
				} else {
					zero(child)
				}
			}
		case []any:
			for _, child := range v {
				zero(child)
			}
		}
	}
	zero(v)
	return v
}

// wireSeries adds the series names (name{labels}, no values) of the
// exposition at url to set.
func wireSeries(t *testing.T, url string, set map[string]bool) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		set[line[:strings.LastIndexByte(line, ' ')]] = true
	}
}

// TestWireGoldens pins what each serving tier puts on the wire — /v1/status
// and /v1/sessions decoded and re-encoded with sorted keys, and the names
// of the /metrics series — after every scene of wireScenes, for a Server,
// a two-shard Fleet and a gateway over two nodes. The files under
// testdata/wire were written by the code this test was committed with;
// `go test ./internal/cluster -run TestWireGoldens -update` rewrites them.
func TestWireGoldens(t *testing.T) {
	for _, tier := range []struct {
		name  string
		build func(t *testing.T, cfg server.Config) wireTier
	}{
		{"server", wireServer},
		{"fleet", wireFleet},
		{"gateway", wireGateway},
	} {
		t.Run(tier.name, func(t *testing.T) {
			bodies := map[string]any{}
			series := map[string]bool{}
			for _, scene := range wireScenes {
				t.Run(scene.name, func(t *testing.T) {
					cfg := scene.cfg
					cfg.Benchmarks = []string{"VA", "MM"}
					built := tier.build(t, cfg)
					// Registered last, so it runs before the listeners close:
					// closing one waits for the handlers a paused loop or a
					// parked stage still holds, and a drain answers those.
					t.Cleanup(func() {
						ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
						defer cancel()
						if err := built.shutdown(ctx); err != nil {
							t.Errorf("shutdown: %v", err)
						}
					})
					sc := wireScene{t, built}
					// A refusal is recorded on an existing session only.
					sc.expect(wireTrivial, http.StatusOK)
					scene.run(sc)
					bodies[scene.name] = map[string]any{
						"status":   wireBody(t, built.front+"/v1/status"),
						"sessions": wireBody(t, built.front+"/v1/sessions"),
					}
					wireSeries(t, built.front+"/metrics", series)
				})
			}
			if t.Failed() {
				return
			}
			names := make([]string, 0, len(series))
			for name := range series {
				names = append(names, name)
			}
			sort.Strings(names)
			got, err := json.MarshalIndent(bodies, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			wireCompare(t, filepath.Join("testdata", "wire", tier.name+".json"), append(got, '\n'))
			wireCompare(t, filepath.Join("testdata", "wire", tier.name+".series.txt"), []byte(strings.Join(names, "\n")+"\n"))
		})
	}
}

func wireCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gotLines), len(wantLines))
}
