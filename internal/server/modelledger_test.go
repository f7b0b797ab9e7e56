package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// modelViews reads the model ledger the two ways the daemon serves it: the
// flep_model_* series of /metrics (the two gauges included) and the
// model's row in the /v1/status models block, keyed by wire field. The
// row's two derived figures are left out: they are ratios of the counts.
func modelViews(t *testing.T, url, model string) map[string]map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	for key, v := range scrape(t, url) {
		if strings.HasPrefix(key, "flep_model_") {
			series[key] = v
		}
	}
	resp, err := http.Get(url + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Models []map[string]any `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	row := map[string]float64{}
	for _, m := range st.Models {
		if m["model"] != model {
			continue
		}
		for field, v := range m {
			if n, ok := v.(float64); ok && field != "attain_rate" && field != "mean_makespan_us" {
				row[field] = n
			}
		}
	}
	return map[string]map[string]float64{"metrics": series, "models row": row}
}

// TestEveryModelEventMovesOneFamilyInBothViews is the model-graph twin of
// TestEveryOutcomeMovesOneFamilyInAllViews: for each thing that can happen
// to a graph or a stage, one request sequence that makes it happen, and
// the requirement that exactly the expected flep_model_* series and
// models-block fields moved, by exactly the expected amount, and nothing
// else did. A counter moved without its row, a row without its counter, a
// cancel path that forgets the held gauge — each fails here
// deterministically.
func TestEveryModelEventMovesOneFamilyInBothViews(t *testing.T) {
	const client, model = "mledger", "m"
	stage := func(graph string, stages int, name string, after ...string) LaunchRequest {
		return LaunchRequest{Client: client, Model: model, Benchmark: "VA", Class: "trivial",
			Graph: graph, Stages: stages, Stage: name, After: after}
	}
	expect := func(t *testing.T, url string, req LaunchRequest, want int) {
		t.Helper()
		if code, res := launch(t, url, req); code != want {
			t.Fatalf("%s/%s: code = %d, want %d (%+v)", req.Graph, req.Stage, code, want, res)
		}
	}
	expectAsync := func(t *testing.T, what string, ch chan asyncRes, want int) {
		t.Helper()
		if r := <-ch; r.err != nil || r.code != want {
			t.Fatalf("%s: code %d err %v, want %d", what, r.code, r.err, want)
		}
	}
	park := func(t *testing.T, s *Server, url string, req LaunchRequest) chan asyncRes {
		t.Helper()
		held := s.depParkedCount()
		ch := postAsync(url, req)
		waitFor(t, req.Stage+" parked", func() bool { return s.depParkedCount() == held+1 })
		return ch
	}
	oversized := func(req LaunchRequest) LaunchRequest {
		req.TasksOverride = 1 << 34
		return req
	}
	const (
		graphsStarted   = `flep_model_graphs_total{outcome="started"}`
		graphsCompleted = `flep_model_graphs_total{outcome="completed"}`
		graphsCanceled  = `flep_model_graphs_total{outcome="canceled"}`
		stagesCompleted = `flep_model_stages_total{outcome="completed"}`
		stagesCanceled  = `flep_model_stages_total{outcome="canceled"}`
		stagesParked    = "flep_model_stages_parked_total"
		stagesReleased  = "flep_model_stages_released_total"
		evictions       = "flep_model_evictions_total"
		sloAttained     = "flep_model_slo_attained_total"
		sloMissed       = "flep_model_slo_missed_total"
		stagesHeld      = "flep_model_stages_held"
		graphsTracked   = "flep_model_graphs_tracked"
	)
	type moves = map[string]float64

	// parked carries a setup's parked request to the drive that answers it.
	var parked chan asyncRes
	cases := []struct {
		name  string
		cfg   Config
		setup func(t *testing.T, s *Server, url string)
		drive func(t *testing.T, s *Server, url string)
		// series and row are the two views' expected movements.
		series, row moves
	}{
		{
			name:   "a graph starts and its first stage parks",
			drive:  func(t *testing.T, s *Server, url string) { park(t, s, url, stage("g", 3, "s2", "s1")) },
			series: moves{graphsStarted: 1, stagesParked: 1, stagesHeld: 1, graphsTracked: 1},
			row:    moves{"graphs_started": 1, "stages_parked": 1},
		},
		{
			name:  "a stage completes and releases a parked one",
			setup: func(t *testing.T, s *Server, url string) { parked = park(t, s, url, stage("g", 3, "s2", "s1")) },
			drive: func(t *testing.T, s *Server, url string) {
				expect(t, url, stage("g", 3, "s1"), http.StatusOK)
				expectAsync(t, "released s2", parked, http.StatusOK)
			},
			series: moves{stagesCompleted: 2, stagesReleased: 1, stagesHeld: -1},
			row:    moves{"stages_completed": 2, "stages_parked": -1},
		},
		{
			name:   "a graph completes",
			drive:  func(t *testing.T, s *Server, url string) { expect(t, url, stage("g", 1, "only"), http.StatusOK) },
			series: moves{graphsStarted: 1, stagesCompleted: 1, graphsCompleted: 1},
			row:    moves{"graphs_started": 1, "stages_completed": 1, "graphs_completed": 1},
		},
		{
			name: "a stage fails at submission",
			drive: func(t *testing.T, s *Server, url string) {
				expect(t, url, oversized(stage("g", 2, "a")), http.StatusUnprocessableEntity)
			},
			series: moves{graphsStarted: 1, stagesCanceled: 1, graphsTracked: 1},
			row:    moves{"graphs_started": 1, "stages_canceled": 1},
		},
		{
			name: "a stage arrives behind a failed prerequisite",
			setup: func(t *testing.T, s *Server, url string) {
				expect(t, url, oversized(stage("g", 2, "a")), http.StatusUnprocessableEntity)
			},
			drive: func(t *testing.T, s *Server, url string) {
				expect(t, url, stage("g", 2, "b", "a"), http.StatusConflict)
			},
			series: moves{stagesCanceled: 1, graphsCanceled: 1, graphsTracked: -1},
			row:    moves{"stages_canceled": 1, "graphs_canceled": 1},
		},
		{
			name:  "a failed stage cascades to its parked dependents",
			setup: func(t *testing.T, s *Server, url string) { parked = park(t, s, url, stage("g", 2, "b", "a")) },
			drive: func(t *testing.T, s *Server, url string) {
				expect(t, url, oversized(stage("g", 2, "a")), http.StatusUnprocessableEntity)
				expectAsync(t, "canceled b", parked, http.StatusConflict)
			},
			series: moves{stagesCanceled: 2, graphsCanceled: 1, stagesHeld: -1, graphsTracked: -1},
			row:    moves{"stages_canceled": 2, "graphs_canceled": 1, "stages_parked": -1},
		},
		{
			name:  "a stalled graph is evicted",
			cfg:   Config{DepGraphs: 1},
			setup: func(t *testing.T, s *Server, url string) { expect(t, url, stage("g1", 2, "s1"), http.StatusOK) },
			drive: func(t *testing.T, s *Server, url string) { expect(t, url, stage("g2", 1, "only"), http.StatusOK) },
			series: moves{graphsCanceled: 1, evictions: 1, graphsStarted: 1, stagesCompleted: 1, graphsCompleted: 1,
				graphsTracked: -1},
			row: moves{"graphs_canceled": 1, "graphs_started": 1, "stages_completed": 1, "graphs_completed": 1},
		},
		{
			name: "a stage meets its deadline",
			drive: func(t *testing.T, s *Server, url string) {
				req := stage("g", 2, "a")
				req.DeadlineMS = 60000
				expect(t, url, req, http.StatusOK)
			},
			series: moves{graphsStarted: 1, stagesCompleted: 1, sloAttained: 1, graphsTracked: 1},
			row:    moves{"graphs_started": 1, "stages_completed": 1, "slo_attained": 1},
		},
		{
			name: "a stage misses its deadline",
			drive: func(t *testing.T, s *Server, url string) {
				req := stage("g", 2, "a")
				req.Benchmark, req.Class, req.DeadlineMS = "MM", "large", 1
				expect(t, url, req, http.StatusOK)
			},
			series: moves{graphsStarted: 1, stagesCompleted: 1, sloMissed: 1, graphsTracked: 1},
			row:    moves{"graphs_started": 1, "stages_completed": 1, "slo_missed": 1},
		},
		{
			name:  "a drain cancels what is still parked",
			setup: func(t *testing.T, s *Server, url string) { parked = park(t, s, url, stage("g", 2, "b", "a")) },
			drive: func(t *testing.T, s *Server, url string) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
				expectAsync(t, "drained b", parked, http.StatusConflict)
			},
			series: moves{stagesCanceled: 1, graphsCanceled: 1, stagesHeld: -1, graphsTracked: -1},
			row:    moves{"stages_canceled": 1, "graphs_canceled": 1, "stages_parked": -1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := newTestServer(t, tc.cfg)
			url := srv.URL
			// Runs before newTestServer's cleanup closes the listener, which
			// waits for the handler a parked stage still holds.
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			})
			// The model's row exists from its first graph on.
			expect(t, url, stage("warm", 1, "only"), http.StatusOK)
			if tc.setup != nil {
				tc.setup(t, s, url)
			}
			before := modelViews(t, url, model)
			tc.drive(t, s, url)
			after := modelViews(t, url, model)
			for view, want := range map[string]moves{"metrics": tc.series, "models row": tc.row} {
				for key, v := range after[view] {
					if got := v - before[view][key]; got != want[key] {
						t.Errorf("%s: %s moved by %v, want %v", view, key, got, want[key])
					}
				}
				for key := range want {
					if _, ok := after[view][key]; !ok {
						t.Errorf("%s: no %s", view, key)
					}
				}
			}
		})
	}
	// Every series of the family, and every count of the row, is some
	// case's subject.
	coveredSeries, coveredRow := moves{}, moves{}
	for _, tc := range cases {
		for key := range tc.series {
			coveredSeries[key] = 1
		}
		for key := range tc.row {
			coveredRow[key] = 1
		}
	}
	_, srv := newTestServer(t, Config{})
	expect(t, srv.URL, stage("warm", 1, "only"), http.StatusOK)
	views := modelViews(t, srv.URL, model)
	for view, covered := range map[string]moves{"metrics": coveredSeries, "models row": coveredRow} {
		for key := range views[view] {
			if covered[key] == 0 {
				t.Errorf("%s: no case moves %s", view, key)
			}
		}
	}
}
