package cluster

import (
	"bytes"
	"net/http"
	"net/url"
	"sync"

	"flep/internal/obs"
	"flep/internal/server"
	"flep/internal/trace"
)

// Handler returns the gateway's HTTP API: the flepd /v1 surface plus the
// cluster-management endpoints.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/launch", g.handleLaunch)
	mux.HandleFunc("GET /v1/status", g.handleStatus)
	mux.HandleFunc("GET /v1/sessions", g.handleSessions)
	mux.HandleFunc("GET /v1/benchmarks", g.handleBenchmarks)
	mux.HandleFunc("GET /v1/trace", g.handleTrace)
	mux.HandleFunc("GET /v1/nodes", g.handleNodes)
	mux.HandleFunc("POST /v1/nodes/{id}/drain", g.handleDrain)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /readyz", g.handleReadyz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	return mux
}

// fetchTarget is one node to aggregate from, snapshotted outside I/O.
type fetchTarget struct {
	id, addr string
}

// fetchTargets lists the nodes aggregation endpoints consult: everything
// not removed (a draining or momentarily-down node still holds state the
// cluster view must include).
func (g *Gateway) fetchTargets() []fetchTarget {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]fetchTarget, 0, len(g.nodes))
	for _, n := range g.nodes {
		if n.removed {
			continue
		}
		out = append(out, fetchTarget{id: n.id, addr: n.addr})
	}
	return out
}

// fetchEach GETs path from every target concurrently and returns the
// bodies that decoded, in target order, with the target each came from.
// Unreachable nodes are skipped: the cluster view is the view of the
// nodes that answered.
func fetchEach[T any](g *Gateway, path string) (parts []T, from []fetchTarget) {
	targets := g.fetchTargets()
	results := make([]*T, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt fetchTarget) {
			defer wg.Done()
			var v T
			if err := getJSON(g.cfg.Client, tgt.addr+path, &v); err == nil {
				results[i] = &v
			}
		}(i, tgt)
	}
	wg.Wait()
	for i, tgt := range targets {
		if results[i] != nil {
			parts, from = append(parts, *results[i]), append(from, tgt)
		}
	}
	return parts, from
}

// ClusterStatus is the gateway's /v1/status: server.MergeStatus of the
// nodes that answered — the same aggregate a fleet builds over its
// shards, so a client's exactly-once verification and SLO read-out work
// against the gateway unchanged — plus the per-node breakdown. Device is
// -1: the aggregate spans nodes, not one device.
type ClusterStatus struct {
	server.Status
	Nodes []NodeStatus `json:"nodes"`
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	parts, _ := fetchEach[server.Status](g, "/v1/status")
	cs := ClusterStatus{Status: server.MergeStatus(parts), Nodes: g.Statuses()}
	cs.Device = -1
	cs.UptimeMS = g.uptimeMS()
	server.WriteJSON(w, http.StatusOK, cs)
}

// ClusterSession is one client's cluster-wide session view: the merged
// per-node snapshot plus which nodes served it (one node per client
// while its home node stays healthy — the affinity contract).
type ClusterSession struct {
	server.SessionSnapshot
	Nodes []string `json:"nodes"`
}

func (g *Gateway) handleSessions(w http.ResponseWriter, r *http.Request) {
	parts, from := fetchEach[[]server.SessionSnapshot](g, "/v1/sessions")
	merged, served := server.MergeSessions(parts)
	out := make([]ClusterSession, len(merged))
	for i, m := range merged {
		out[i] = ClusterSession{SessionSnapshot: m}
		for _, p := range served[i] {
			out[i].Nodes = append(out[i].Nodes, from[p].id)
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// handleBenchmarks relays the first answering node's catalog (catalogs
// are identical across a homogeneous cluster).
func (g *Gateway) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	for _, tgt := range g.fetchTargets() {
		var benches []server.BenchmarkInfo
		if err := getJSON(g.cfg.Client, tgt.addr+"/v1/benchmarks", &benches); err == nil {
			server.WriteJSON(w, http.StatusOK, benches)
			return
		}
	}
	server.WriteJSON(w, http.StatusServiceUnavailable, server.APIError{Error: "no node answered /v1/benchmarks"})
}

// handleTrace merges the nodes' trace streams into one global
// (Time, Node, Device)-ordered stream, each entry stamped with its node, and
// answers it the way a node answers its own (limit, format). kind and limit
// are forwarded: the merged stream's last N entries are among each node's
// own last N, so a node sends only those.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	q := url.Values{}
	for _, key := range []string{"kind", "limit"} {
		if v := r.URL.Query().Get(key); v != "" {
			q.Set(key, v)
		}
	}
	path := "/v1/trace"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	streams, from := fetchEach[[]trace.Entry](g, path)
	if len(streams) == 0 {
		server.WriteJSON(w, http.StatusNotFound, server.APIError{Error: "no node served a trace (start flepd with -trace)"})
		return
	}
	for i, entries := range streams {
		for j := range entries {
			entries[j].Node = from[i].id
		}
	}
	server.WriteTrace(w, r, trace.Merge(streams))
}

func (g *Gateway) handleNodes(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, g.Statuses())
}

func (g *Gateway) handleDrain(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := g.Drain(id); err != nil {
		server.WriteJSON(w, http.StatusNotFound, server.APIError{Error: err.Error()})
		return
	}
	server.WriteJSON(w, http.StatusAccepted, map[string]string{"node": id, "state": "draining"})
}

// handleHealthz is the gateway's own liveness: 200 while it serves.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// handleReadyz is routability: the gateway is ready iff at least one
// node is.
func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if g.ReadyNodes() == 0 {
		http.Error(w, "no ready nodes", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

// handleMetrics answers one exposition (obs.Exposition): the gateway's own
// families, then each node's with a node label injected into every sample
// — one scrape answers both "how is the gateway routing?" and "what is
// each node doing?", and label-subset sums (obs.SumMatching without the
// node key) recover cluster-wide totals. A node that does not answer is
// left out.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var expo obs.Exposition
	var own bytes.Buffer
	_ = g.reg.WritePrometheus(&own) // a bytes.Buffer takes every write
	_ = expo.Add(&own, "", "")
	for _, tgt := range g.fetchTargets() {
		resp, err := g.cfg.Client.Get(tgt.addr + "/metrics")
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			err = expo.Add(resp.Body, "node", tgt.id)
		}
		resp.Body.Close()
		if err != nil {
			http.Error(w, "node "+tgt.id+": "+err.Error(), http.StatusBadGateway)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = expo.Write(w) // a failed write is the scraper hanging up
}
