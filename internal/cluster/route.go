package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"flep/internal/server"
)

// candidate is one routable node in preference order, copied out of the
// lock so the proxy loop never does I/O while holding it.
type candidate struct {
	id, addr string
}

// candidates computes the launch's node preference order.
//
// A pinned launch (server.PinKey: a named client's, or an anonymous
// client's graph stage) walks the consistent-hash ring from its key, the
// rule and ring the fleet (server.Fleet.route) follows over its shards.
// The first eligible node on the walk is the key's home, and because the
// walk order is a pure function of the key, a drained or dead node remaps
// exactly its own keys to their next ring preference while every other
// one stays put.
//
// Other anonymous launches have no session to preserve, so they go
// wherever capacity is, in the fleet's placement order (server.Placement):
// memory fit is judged against the node's last-known free device memory,
// and load is queued + in-flight at the node plus the gateway's own
// not-yet-visible in-flight count.
func (g *Gateway) candidates(client string, req server.LaunchRequest) []candidate {
	g.mu.Lock()
	defer g.mu.Unlock()

	if key, ok := server.PinKey(client, req); ok {
		out := make([]candidate, 0, len(g.nodes))
		for _, i := range g.ring.Walk(key) {
			if n := g.nodes[i]; n.eligible() {
				out = append(out, candidate{id: n.id, addr: n.addr})
			}
		}
		return out
	}

	var need int64
	for _, nd := range g.nodes {
		// Catalogs are identical across a homogeneous cluster: the first
		// node that served one prices the working set for all.
		if len(nd.benches) > 0 {
			need = server.WorkingSet(nd.benches, req)
			break
		}
	}
	type scored struct {
		cand  candidate
		score server.Placement
	}
	n := len(g.nodes)
	start := int(g.rr) % n
	g.rr++
	elig := make([]scored, 0, n)
	for i, nd := range g.nodes {
		if !nd.eligible() {
			continue
		}
		score := server.Placement{Fits: true, Load: nd.inflight, Rot: (i - start + n) % n}
		if nd.haveStatus {
			score.Load += int64(nd.status.QueueLen) + nd.status.Counters.InFlight()
			if need > 0 && nd.status.MemoryFreeBytes > 0 && nd.status.MemoryFreeBytes < need {
				score.Fits = false
			}
		}
		elig = append(elig, scored{cand: candidate{id: nd.id, addr: nd.addr}, score: score})
	}
	// The whole order matters here, not just its head: it is the retry
	// walk when the preferred node answers 429 or dies.
	sort.Slice(elig, func(i, j int) bool { return elig[i].score.Before(elig[j].score) })
	out := make([]candidate, len(elig))
	for i, s := range elig {
		out[i] = s.cand
	}
	return out
}

// trackInflight adjusts the gateway-side in-flight count for a node.
func (g *Gateway) trackInflight(id string, delta int64) {
	g.mu.Lock()
	g.byID[id].inflight += delta
	g.mu.Unlock()
}

// countTerminal records a terminal response relayed for a node.
func (g *Gateway) countTerminal(id string, code int) {
	g.mu.Lock()
	n := g.byID[id]
	switch code {
	case http.StatusOK:
		n.accepted++
	case http.StatusUnprocessableEntity:
		n.failed++
	case http.StatusGatewayTimeout:
		n.timedOut++
	}
	g.mu.Unlock()
}

// handleLaunch proxies one launch with retry-with-exclusion: walk the
// candidate list; transport failures mark the node down and move on (unless
// the client hung up, which ends the walk with nothing marked), a
// node's 429 is remembered (so an all-saturated cluster answers 429 with
// the largest backend Retry-After rather than lying with a generic
// retry hint) unless the launch is a graph stage, whose 429 is relayed,
// and a 503 means the node started draining on its own. Any
// terminal response (200/400/422/504) is relayed as-is plus an
// X-Flep-Node header naming the serving node, so clients can attribute
// per-node results and keep (node, device, id) identity unique.
func (g *Gateway) handleLaunch(w http.ResponseWriter, r *http.Request) {
	g.met.Launches.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.APIError{Error: "read body: " + err.Error()})
		return
	}
	var req server.LaunchRequest
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			server.WriteJSON(w, http.StatusBadRequest, server.APIError{Error: "parse launch: " + err.Error()})
			return
		}
	}
	client := server.ResolveClient(r, req.Client)

	cands := g.candidates(client, req)
	tried := 0
	sawSaturated := false
	maxRetryAfter := 0
	for _, cand := range cands {
		tried++
		if tried > 1 {
			g.met.Retries.Inc()
		}
		code, hdr, respBody, err := g.proxyLaunch(r, cand, client, body)
		if err != nil {
			if r.Context().Err() != nil {
				// The client hung up, which failed the proxied request too:
				// the node is not at fault, and no node can answer a client
				// that is gone.
				return
			}
			g.markDown(cand.id, err)
			continue
		}
		switch code {
		case http.StatusTooManyRequests:
			if req.Graph != "" {
				// A graph's stages meet in its home's dependency table: the
				// home's refusal is the answer, since no other node has seen
				// the graph.
				break
			}
			sawSaturated = true
			if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && ra > maxRetryAfter {
				maxRetryAfter = ra
			}
			continue
		case http.StatusServiceUnavailable:
			g.markUnready(cand.id)
			continue
		}
		g.countTerminal(cand.id, code)
		if code == http.StatusOK {
			g.met.Accepted.Inc()
			g.record(cand.id, client, req, respBody)
		}
		relay(w, code, hdr, respBody, cand.id)
		return
	}

	if sawSaturated {
		g.met.RejectedSaturated.Inc()
		if maxRetryAfter <= 0 {
			maxRetryAfter = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
		server.WriteJSON(w, http.StatusTooManyRequests, server.APIError{Error: "cluster saturated: every node's admission queue is full"})
		return
	}
	g.met.RejectedUnroutable.Inc()
	server.WriteJSON(w, http.StatusServiceUnavailable, server.APIError{Error: "no ready nodes"})
}

// proxyLaunch sends the launch to one node, counting the gateway-side
// in-flight window for the duration.
func (g *Gateway) proxyLaunch(r *http.Request, cand candidate, client string, body []byte) (int, http.Header, []byte, error) {
	g.trackInflight(cand.id, +1)
	defer g.trackInflight(cand.id, -1)

	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, cand.addr+"/v1/launch", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set("X-Flep-Client", client)
	resp, err := g.cfg.Client.Do(preq)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		// A terminal status whose body died on the wire is indistinguishable
		// from a transport failure for accounting: treat it as one so the
		// caller retries (the invocation, if admitted, still completes
		// exactly once on the node).
		return 0, nil, nil, fmt.Errorf("read %s response: %w", cand.id, err)
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// record appends an accepted launch to the gateway trace (no-op without
// -record). The serving node and device come from the relayed result.
func (g *Gateway) record(nodeID, client string, req server.LaunchRequest, respBody []byte) {
	if g.rec == nil {
		return
	}
	rec := req.Record()
	rec.At, rec.Node, rec.Client, rec.Device = time.Since(g.startReal).Nanoseconds(), nodeID, client, -1
	var res server.LaunchResult
	if err := json.Unmarshal(respBody, &res); err == nil {
		rec.Device = res.Device
	}
	g.rec.Record(rec)
}

// relay writes a node's terminal response through to the client.
func relay(w http.ResponseWriter, code int, hdr http.Header, body []byte, nodeID string) {
	// The node's own value slice is handed through (cut to one value, so a
	// later Add reallocates): Set would allocate one per relayed answer.
	if ct := hdr["Content-Type"]; len(ct) > 0 && ct[0] != "" {
		w.Header()["Content-Type"] = ct[:1:1]
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-Flep-Node", nodeID)
	w.WriteHeader(code)
	w.Write(body)
}
