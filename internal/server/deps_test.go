package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// postAsync submits a launch from its own goroutine and delivers the
// outcome on a channel, so tests can park graph stages (which block
// until released or canceled) without calling t from a non-test
// goroutine.
type asyncRes struct {
	code int
	res  LaunchResult
	err  error
}

func postAsync(url string, req LaunchRequest) chan asyncRes {
	ch := make(chan asyncRes, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := http.Post(url+"/v1/launch", "application/json", bytes.NewReader(body))
		if err != nil {
			ch <- asyncRes{err: err}
			return
		}
		defer resp.Body.Close()
		var res LaunchResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			ch <- asyncRes{err: err}
			return
		}
		ch <- asyncRes{code: resp.StatusCode, res: res}
	}()
	return ch
}

// metricValue scrapes /metrics and returns the named series' value
// (exact match on the series including its label set).
func metricValue(t *testing.T, url, series string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in /metrics", series)
	return 0
}

func modelRow(st Status, name string) (ModelStatus, bool) {
	for _, m := range st.Models {
		if m.Model == name {
			return m, true
		}
	}
	return ModelStatus{}, false
}

// A diamond DAG submitted out of order completes exactly once: the three
// dependent stages park, the root's completion releases the branches,
// the join runs last and meets its deadline, and both the models block
// and the flep_model_* families account the whole graph.
func TestModelGraphDiamondCompletesAndReconciles(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	base := LaunchRequest{Client: "dag", Graph: "g1", Stages: 4, Model: "diamond"}
	post := base
	post.Benchmark, post.Stage, post.After = "VA", "post", []string{"left", "right"}
	post.DeadlineMS = 2000
	left := base
	left.Benchmark, left.Stage, left.After = "MM", "left", []string{"pre"}
	right := base
	right.Benchmark, right.Stage, right.After = "VA", "right", []string{"pre"}
	pre := base
	pre.Benchmark, pre.Stage = "VA", "pre"

	// Park the dependents one at a time so the registration order (the
	// deterministic release path) is fixed.
	postCh := postAsync(ts.URL, post)
	waitFor(t, "post parked", func() bool { return s.depParkedCount() == 1 })
	leftCh := postAsync(ts.URL, left)
	waitFor(t, "left parked", func() bool { return s.depParkedCount() == 2 })
	rightCh := postAsync(ts.URL, right)
	waitFor(t, "right parked", func() bool { return s.depParkedCount() == 3 })

	code, res := launch(t, ts.URL, pre)
	if code != http.StatusOK {
		t.Fatalf("pre: code %d, %+v", code, res)
	}
	for name, ch := range map[string]chan asyncRes{"post": postCh, "left": leftCh, "right": rightCh} {
		r := <-ch
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("%s: code %d err %v (%+v)", name, r.code, r.err, r.res)
		}
		if name == "post" && r.res.SLO != "attained" {
			t.Fatalf("post missed a 2s budget: %+v", r.res)
		}
	}

	waitFor(t, "graph retired", func() bool { return s.depGraphCount() == 0 })
	st := getStatus(t, ts.URL)
	if st.Counters.Enqueued != 4 || st.Counters.Completed != 4 || st.Counters.SubmitErrors != 0 {
		t.Fatalf("ledger: %+v", st.Counters)
	}
	if !st.ExactlyOnceOK {
		t.Fatalf("exactly-once flag down: %+v", st.Counters)
	}
	row, ok := modelRow(st, "diamond")
	if !ok {
		t.Fatalf("no diamond row in models block: %+v", st.Models)
	}
	want := ModelStatus{
		Model: "diamond", GraphsStarted: 1, GraphsCompleted: 1,
		StagesCompleted: 4, SLOAttained: 1, AttainRate: 1,
		MeanMakespanUS: row.MeanMakespanUS,
	}
	if row != want {
		t.Fatalf("diamond row = %+v, want %+v", row, want)
	}
	if row.MeanMakespanUS <= 0 {
		t.Fatalf("graph makespan not positive: %+v", row)
	}

	// The metric families must reconcile exactly with the models block.
	for series, want := range map[string]float64{
		`flep_model_graphs_total{outcome="started"}`:     1,
		`flep_model_graphs_total{outcome="completed"}`:   1,
		`flep_model_graphs_total{outcome="canceled"}`:    0,
		`flep_model_stages_total{outcome="completed"}`:   4,
		`flep_model_stages_total{outcome="canceled"}`:    0,
		`flep_model_stages_parked_total`:                 3,
		`flep_model_stages_released_total`:               3,
		`flep_model_slo_attained_total`:                  1,
		`flep_model_slo_missed_total`:                    0,
		`flep_model_stages_held`:                         0,
		`flep_model_graphs_tracked`:                      0,
		`flep_server_launches_total{outcome="enqueued"}`: 4,
	} {
		if got := metricValue(t, ts.URL, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// A best-effort root shed mid-graph dooms its descendants: the parked
// stages are canceled deterministically with 409, the graph closes as
// canceled, and the exactly-once ledger still balances at rest because
// canceled stages never entered it.
func TestModelGraphShedCascadesCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 2})
	if err := s.Pause(); err != nil {
		t.Fatalf("pause: %v", err)
	}

	// A parked deadline-bearing launch makes the LC tier outstanding, so
	// best-effort admission sheds once the queue reaches the cost-aware
	// share (beLimit is 1 at QueueDepth 2).
	fillerCh := postAsync(ts.URL, LaunchRequest{
		Client: "lc", Benchmark: "VA", Class: "small", DeadlineMS: 5000,
	})
	waitFor(t, "LC filler queued", func() bool { return getStatus(t, ts.URL).QueueLen == 1 })

	base := LaunchRequest{Client: "dag2", Graph: "g", Stages: 3, Model: "cascade", Benchmark: "VA"}
	c := base
	c.Stage, c.After = "c", []string{"b"}
	b := base
	b.Stage, b.After = "b", []string{"a"}
	a := base
	a.Stage = "a"

	cCh := postAsync(ts.URL, c)
	waitFor(t, "c parked", func() bool { return s.depParkedCount() == 1 })
	bCh := postAsync(ts.URL, b)
	waitFor(t, "b parked", func() bool { return s.depParkedCount() == 2 })

	code, _ := launch(t, ts.URL, a)
	if code != http.StatusTooManyRequests {
		t.Fatalf("best-effort root not shed: code %d", code)
	}
	for name, ch := range map[string]chan asyncRes{"b": bCh, "c": cCh} {
		r := <-ch
		if r.err != nil || r.code != http.StatusConflict {
			t.Fatalf("%s: code %d err %v (%+v)", name, r.code, r.err, r.res)
		}
		if !strings.Contains(r.res.Canceled, `prerequisite "a" failed`) &&
			!strings.Contains(r.res.Canceled, `prerequisite "b" failed`) {
			t.Fatalf("%s canceled for the wrong reason: %q", name, r.res.Canceled)
		}
	}

	if err := s.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if r := <-fillerCh; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("LC filler: code %d err %v", r.code, r.err)
	}

	waitFor(t, "graph retired", func() bool { return s.depGraphCount() == 0 })
	st := getStatus(t, ts.URL)
	// Only the filler ever entered the ledger; the shed root and the two
	// canceled stages are outcome-counted outside it.
	if st.Counters.Enqueued != 1 || st.Counters.Completed != 1 || st.Counters.SubmitErrors != 0 {
		t.Fatalf("ledger: %+v", st.Counters)
	}
	if st.Counters.RejectedShed != 1 || st.Counters.DepCanceled != 2 {
		t.Fatalf("shed/cancel counts: %+v", st.Counters)
	}
	row, ok := modelRow(st, "cascade")
	if !ok {
		t.Fatalf("no cascade row: %+v", st.Models)
	}
	if row.GraphsStarted != 1 || row.GraphsCanceled != 1 || row.GraphsCompleted != 0 ||
		row.StagesCanceled != 3 || row.StagesCompleted != 0 || row.StagesParked != 0 {
		t.Fatalf("cascade row = %+v", row)
	}
	for series, want := range map[string]float64{
		`flep_model_graphs_total{outcome="canceled"}`:                     1,
		`flep_model_stages_total{outcome="canceled"}`:                     3,
		`flep_server_launches_total{outcome="dep_canceled"}`:              2,
		`flep_server_launches_total{outcome="rejected_best_effort_shed"}`: 1,
	} {
		if got := metricValue(t, ts.URL, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// Admission validates graph specs: malformed shapes, cycle-closing
// edges, and prerequisites that can never exist are 400s, and a graph
// stalled by a rejected stage still completes once the real
// prerequisite arrives.
func TestModelGraphRejectsInvalidSpecs(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	for what, req := range map[string]LaunchRequest{
		"graph without stage": {Benchmark: "VA", Graph: "gx", Stages: 2},
		"stage without graph": {Benchmark: "VA", Stage: "s", Stages: 2},
		"no declared stages":  {Benchmark: "VA", Graph: "gx", Stage: "s"},
		"after exceeds total": {Benchmark: "VA", Graph: "gx", Stage: "s", Stages: 1, After: []string{"p"}},
		"self dependency":     {Benchmark: "VA", Graph: "gx", Stage: "s", Stages: 2, After: []string{"s"}},
		"duplicate prereq":    {Benchmark: "VA", Graph: "gx", Stage: "s", Stages: 3, After: []string{"p", "p"}},
	} {
		if code, _ := launch(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", what, code)
		}
	}

	// Closing a dependency cycle against an already-parked stage is a 400;
	// submitting the honest prerequisite afterwards completes the graph.
	cyc := LaunchRequest{Client: "v", Benchmark: "VA", Graph: "gc", Stages: 2}
	x := cyc
	x.Stage, x.After = "x", []string{"y"}
	xCh := postAsync(ts.URL, x)
	waitFor(t, "x parked", func() bool { return s.depParkedCount() == 1 })
	y := cyc
	y.Stage, y.After = "y", []string{"x"}
	if code, _ := launch(t, ts.URL, y); code != http.StatusBadRequest {
		t.Fatalf("cycle-closing stage: code %d, want 400", code)
	}
	y.After = nil
	if code, _ := launch(t, ts.URL, y); code != http.StatusOK {
		t.Fatalf("honest prerequisite: code %d", code)
	}
	if r := <-xCh; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("released x: code %d err %v", r.code, r.err)
	}

	// A prerequisite no undeclared slot could ever satisfy is rejected up
	// front instead of parking forever.
	imp := LaunchRequest{Client: "v", Benchmark: "VA", Graph: "gi", Stages: 2}
	u1 := imp
	u1.Stage = "u1"
	if code, _ := launch(t, ts.URL, u1); code != http.StatusOK {
		t.Fatalf("u1: code %d", code)
	}
	u2 := imp
	u2.Stage, u2.After = "u2", []string{"ghost"}
	if code, _ := launch(t, ts.URL, u2); code != http.StatusBadRequest {
		t.Fatalf("impossible prerequisite: code %d, want 400", code)
	}
	if code, _ := launch(t, ts.URL, u1); code != http.StatusBadRequest {
		t.Fatalf("duplicate stage: code %d, want 400", code)
	}
	u3 := imp
	u3.Stage, u3.Stages = "u3", 3
	if code, _ := launch(t, ts.URL, u3); code != http.StatusBadRequest {
		t.Fatalf("mismatched declared count: code %d, want 400", code)
	}

	st := getStatus(t, ts.URL)
	if st.Counters.RejectedInvalid < 9 {
		t.Fatalf("invalid rejects = %d, want >= 9: %+v", st.Counters.RejectedInvalid, st.Counters)
	}
	if st.Counters.Enqueued != st.Counters.Completed {
		t.Fatalf("ledger: %+v", st.Counters)
	}
}

// The pending-dependency table is bounded on both axes: parked stages
// (429 once DepPending is reached) and live graphs (429 while every
// tracked graph is active, eviction of the oldest stalled graph once one
// goes quiet).
func TestModelDepTableBoundsAndEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{DepPending: 1, DepGraphs: 1})

	g1 := LaunchRequest{Client: "bd", Benchmark: "VA", Graph: "g1", Stages: 3}
	s2 := g1
	s2.Stage, s2.After = "s2", []string{"s1"}
	s2Ch := postAsync(ts.URL, s2)
	waitFor(t, "s2 parked", func() bool { return s.depParkedCount() == 1 })

	s3 := g1
	s3.Stage, s3.After = "s3", []string{"s1"}
	if code, _ := launch(t, ts.URL, s3); code != http.StatusTooManyRequests {
		t.Fatalf("park past DepPending: code %d, want 429", code)
	}

	g2 := LaunchRequest{Client: "bd", Benchmark: "VA", Graph: "g2", Stages: 1, Stage: "a"}
	if code, _ := launch(t, ts.URL, g2); code != http.StatusTooManyRequests {
		t.Fatalf("new graph while table busy: code %d, want 429", code)
	}

	s1 := g1
	s1.Stage = "s1"
	if code, _ := launch(t, ts.URL, s1); code != http.StatusOK {
		t.Fatalf("s1: code %d", code)
	}
	if r := <-s2Ch; r.err != nil || r.code != http.StatusOK {
		t.Fatalf("released s2: code %d err %v", r.code, r.err)
	}
	waitFor(t, "g1 quiescent", func() bool { return s.depParkedCount() == 0 })

	// g1 is now stalled (two of three declared stages done, nothing parked
	// or in flight) — a fresh graph evicts it instead of bouncing.
	if code, _ := launch(t, ts.URL, g2); code != http.StatusOK {
		t.Fatalf("graph after eviction: code %d", code)
	}

	waitFor(t, "tables empty", func() bool { return s.depGraphCount() == 0 })
	st := getStatus(t, ts.URL)
	if st.Counters.RejectedDepFull != 2 {
		t.Fatalf("dep-table 429s = %d, want 2: %+v", st.Counters.RejectedDepFull, st.Counters)
	}
	if st.Counters.Enqueued != 3 || st.Counters.Completed != 3 {
		t.Fatalf("ledger: %+v", st.Counters)
	}
	row, ok := modelRow(st, "default")
	if !ok {
		t.Fatalf("no default row: %+v", st.Models)
	}
	if row.GraphsStarted != 2 || row.GraphsCompleted != 1 || row.GraphsCanceled != 1 ||
		row.StagesCompleted != 3 {
		t.Fatalf("default row = %+v", row)
	}
	if got := metricValue(t, ts.URL, "flep_model_evictions_total"); got != 1 {
		t.Fatalf("evictions = %v, want 1", got)
	}
	if got := metricValue(t, ts.URL, `flep_server_launches_total{outcome="rejected_dep_table_full"}`); got != 2 {
		t.Fatalf("rejected_dep_table_full = %v, want 2", got)
	}
}

// A stage parked on a prerequisite that never registers is answered 409
// the moment its graph's last declared slot fills, not left to wait out
// its timeout (504); the graph then closes as canceled.
func TestModelGraphStageParkedOnAMissingNameIsCanceled(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	base := LaunchRequest{Client: "dag3", Graph: "g", Stages: 3, Model: "orphan", Benchmark: "VA"}
	orphan := base
	orphan.Stage, orphan.After, orphan.TimeoutMS = "s1", []string{"zz"}, 5000
	orphanCh := postAsync(ts.URL, orphan)
	waitFor(t, "s1 parked", func() bool { return s.depParkedCount() == 1 })
	for _, name := range []string{"s2", "s3"} {
		req := base
		req.Stage = name
		if code, res := launch(t, ts.URL, req); code != http.StatusOK {
			t.Fatalf("%s: code %d, %+v", name, code, res)
		}
	}
	r := <-orphanCh
	if r.err != nil || r.code != http.StatusConflict {
		t.Fatalf("s1: code %d err %v (%+v), want 409", r.code, r.err, r.res)
	}
	if !strings.Contains(r.res.Canceled, `prerequisite "zz" can never exist`) {
		t.Fatalf("s1 canceled for the wrong reason: %q", r.res.Canceled)
	}

	waitFor(t, "graph retired", func() bool { return s.depGraphCount() == 0 })
	st := getStatus(t, ts.URL)
	if st.Counters.Enqueued != 2 || st.Counters.Completed != 2 || st.Counters.DepCanceled != 1 || !st.ExactlyOnceOK {
		t.Fatalf("ledger: %+v", st.Counters)
	}
	row, ok := modelRow(st, "orphan")
	if !ok {
		t.Fatalf("no orphan row: %+v", st.Models)
	}
	if row.GraphsStarted != 1 || row.GraphsCanceled != 1 || row.GraphsCompleted != 0 ||
		row.StagesCompleted != 2 || row.StagesCanceled != 1 || row.StagesParked != 0 {
		t.Fatalf("orphan row = %+v", row)
	}
}
