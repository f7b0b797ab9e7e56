// Package cluster is the flepgw gateway: one HTTP front door over N
// independent flepd nodes, presenting the same /v1 surface a single
// daemon does. The gateway owns routing (consistent-hash session
// affinity, memory/load-aware placement for unaffinitized launches),
// node health, drain/rebalance, and fleet-wide aggregation of status,
// sessions, traces, and metrics. Nodes stay mutually unaware — flepd
// gains no cluster code — so a node can be killed, drained, or added
// behind the gateway without touching the data plane it serves.
package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"flep/internal/obs"
	"flep/internal/replay"
	"flep/internal/server"
)

// Config configures a Gateway.
type Config struct {
	// Nodes are the flepd base addresses in cluster order. ":8081",
	// "host:8081", and "http://host:8081" forms are all accepted; node
	// IDs are assigned positionally (n0, n1, ...).
	Nodes []string
	// HealthInterval is the active health-check period (default 200ms).
	HealthInterval time.Duration
	// Client issues proxied launches and aggregation fetches. The default
	// client has no overall timeout: launches block server-side until the
	// invocation completes, which is the flepd contract.
	Client *http.Client
	// Recorder, when set, captures every launch the gateway saw accepted
	// (Source flepgw, Node stamped). The gateway does not own its
	// lifecycle; the caller closes it.
	Recorder *replay.Recorder
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// probeTimeout bounds one health probe round-trip.
const probeTimeout = 2 * time.Second

func (c *Config) applyDefaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 200 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// normalizeAddr turns a -nodes entry into a base URL.
func normalizeAddr(a string) (string, error) {
	a = strings.TrimSpace(a)
	if a == "" {
		return "", fmt.Errorf("cluster: empty node address")
	}
	if strings.HasPrefix(a, "http://") || strings.HasPrefix(a, "https://") {
		return strings.TrimRight(a, "/"), nil
	}
	if strings.HasPrefix(a, ":") {
		return "http://127.0.0.1" + a, nil
	}
	return "http://" + a, nil
}

// node is the gateway's view of one flepd. The immutable identity fields
// are set at construction; everything else is guarded by Gateway.mu.
// Gateway-side counters (accepted/failed/timedOut) count terminal
// responses the gateway actually relayed — a request that died on the
// wire before a response counts nothing, which is what makes the
// cluster-wide reconciliation exact: every launch a node enqueued on the
// gateway's behalf produced exactly one terminal response.
type node struct {
	id   string
	addr string

	ready      bool
	draining   bool // gateway-side drain: stop routing, wait, remove
	removed    bool
	lastErr    string
	status     server.Status
	haveStatus bool
	benches    []server.BenchmarkInfo

	accepted int64
	failed   int64
	timedOut int64
	inflight int64

	readyGauge *obs.Gauge
}

func (n *node) eligible() bool { return n.ready && !n.draining && !n.removed }

func (n *node) stateString() string {
	switch {
	case n.removed:
		return "removed"
	case n.draining:
		return "draining"
	case n.ready:
		return "ready"
	default:
		return "down"
	}
}

// Gateway fronts a set of flepd nodes.
type Gateway struct {
	cfg       Config
	reg       *obs.Registry
	rec       *replay.Recorder
	ring      *server.Ring // over the node addresses; part i is nodes[i]
	startReal time.Time

	mu    sync.Mutex
	nodes []*node
	byID  map[string]*node
	rr    int64 // rotating tie-break for placement bursts

	met *gwMetrics

	stopOnce   sync.Once
	stopCh     chan struct{}
	healthDone chan struct{}
}

// New builds a Gateway over the configured nodes. Call Start to begin
// health checking and Close to stop it.
func New(cfg Config) (*Gateway, error) {
	cfg.applyDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	g := &Gateway{
		cfg:        cfg,
		reg:        obs.NewRegistry(),
		rec:        cfg.Recorder,
		startReal:  time.Now(),
		byID:       map[string]*node{},
		stopCh:     make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	var addrs []string
	for i, raw := range cfg.Nodes {
		addr, err := normalizeAddr(raw)
		if err != nil {
			return nil, err
		}
		if slices.Contains(addrs, addr) {
			return nil, fmt.Errorf("cluster: duplicate node address %s", addr)
		}
		n := &node{id: fmt.Sprintf("n%d", i), addr: addr}
		g.nodes = append(g.nodes, n)
		g.byID[n.id] = n
		addrs = append(addrs, addr)
	}
	// The ring hashes addresses, not positional IDs: re-listing the same
	// cluster with one node added leaves existing sessions' home nodes
	// unchanged even though positional IDs shift.
	g.ring = server.NewRing(addrs)
	g.met = newGWMetrics(g.reg, g)
	for _, n := range g.nodes {
		//flepvet:allow metriclabel -- node IDs are fixed at startup from -nodes, bounded cardinality
		n.readyGauge = g.reg.Gauge("flep_gateway_node_ready", "1 while the node answers readyz with 200", "node", n.id)
	}
	return g, nil
}

// Start launches the active health-check loop.
func (g *Gateway) Start() {
	go g.healthLoop()
}

// Close stops the health loop. It does not drain in-flight proxied
// requests — the HTTP server owns those.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stopCh) })
	<-g.healthDone
}

// Registry exposes the gateway's own metrics registry (tests).
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// probeTarget is the immutable slice of node state a health probe needs;
// copied out under mu so no HTTP happens while the lock is held.
type probeTarget struct {
	id, addr  string
	needBench bool
}

func (g *Gateway) healthLoop() {
	defer close(g.healthDone)
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	// Probe immediately so a freshly-started gateway is routable as soon
	// as its nodes are, not one interval later.
	g.probeAll()
	for {
		select {
		case <-g.stopCh:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	g.mu.Lock()
	targets := make([]probeTarget, 0, len(g.nodes))
	for _, n := range g.nodes {
		if n.removed {
			continue
		}
		targets = append(targets, probeTarget{id: n.id, addr: n.addr, needBench: len(n.benches) == 0})
	}
	g.mu.Unlock()

	var wg sync.WaitGroup
	for _, tgt := range targets {
		wg.Add(1)
		go func(tgt probeTarget) {
			defer wg.Done()
			g.probeOne(tgt)
		}(tgt)
	}
	wg.Wait()
}

// probeOne checks one node's readiness and refreshes its cached status
// snapshot. All HTTP happens before the state update.
func (g *Gateway) probeOne(tgt probeTarget) {
	client := &http.Client{Timeout: probeTimeout, Transport: g.cfg.Client.Transport}

	ready, probeErr := probeReady(client, tgt.addr)
	var st server.Status
	haveStatus := false
	if probeErr == nil {
		if err := getJSON(client, tgt.addr+"/v1/status", &st); err == nil {
			haveStatus = true
		}
	}
	var benches []server.BenchmarkInfo
	if ready && tgt.needBench {
		// Fetch the node's benchmark catalog once: it is static for the
		// node's lifetime and drives memory-aware placement.
		_ = getJSON(client, tgt.addr+"/v1/benchmarks", &benches)
	}

	g.mu.Lock()
	n := g.byID[tgt.id]
	wasReady := n.ready
	n.ready = ready
	if probeErr != nil {
		n.lastErr = probeErr.Error()
	} else {
		n.lastErr = ""
	}
	if haveStatus {
		n.status = st
		n.haveStatus = true
	}
	if len(benches) > 0 && len(n.benches) == 0 {
		n.benches = benches
	}
	if n.readyGauge != nil {
		if ready {
			n.readyGauge.Set(1)
		} else {
			n.readyGauge.Set(0)
		}
	}
	g.mu.Unlock()

	if wasReady != ready {
		if ready {
			g.cfg.Logf("cluster: node %s (%s) ready", tgt.id, tgt.addr)
		} else {
			g.cfg.Logf("cluster: node %s (%s) not ready: %v", tgt.id, tgt.addr, probeErr)
		}
	}
}

// probeReady asks the node's /readyz. A 200 is ready; 503 is a live but
// draining/unready node; anything else (including transport errors) is
// down with the error recorded.
func probeReady(client *http.Client, addr string) (bool, error) {
	resp, err := client.Get(addr + "/readyz")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return true, nil
	}
	return false, fmt.Errorf("readyz: %s", resp.Status)
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// markDown records a passive health observation: a proxied request to
// the node failed at the transport layer, so stop routing to it until
// the health loop sees it answer again.
func (g *Gateway) markDown(id string, err error) {
	g.mu.Lock()
	n := g.byID[id]
	was := n.ready
	n.ready = false
	n.lastErr = err.Error()
	if n.readyGauge != nil {
		n.readyGauge.Set(0)
	}
	g.mu.Unlock()
	if was {
		g.cfg.Logf("cluster: node %s marked down: %v", id, err)
	}
}

// markUnready records a 503 from the node's launch path (it is draining
// on its own initiative); the health loop will confirm via /readyz.
func (g *Gateway) markUnready(id string) {
	g.mu.Lock()
	g.byID[id].ready = false
	g.mu.Unlock()
}

// NodeStatus is the /v1/nodes view of one node: its gateway-side routing
// state and terminal-response accounting next to the node's own last
// status snapshot. gw_accepted + gw_failed + gw_timed_out on a surviving
// node equals that node's enqueued counter once the cluster is at rest —
// the reconciliation contract cluster_smoke.sh enforces.
type NodeStatus struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	State    string `json:"state"`
	LastErr  string `json:"last_error,omitempty"`
	Accepted int64  `json:"gw_accepted"`
	Failed   int64  `json:"gw_failed"`
	TimedOut int64  `json:"gw_timed_out"`
	InFlight int64  `json:"gw_in_flight"`
	// Status is the node's last /v1/status snapshot (from the health
	// loop; absent until the first successful probe).
	Status *server.Status `json:"status,omitempty"`
}

// Statuses snapshots every node's gateway-side view (the /v1/nodes body
// and the exit-time accounting log).
func (g *Gateway) Statuses() []NodeStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]NodeStatus, 0, len(g.nodes))
	for _, n := range g.nodes {
		ns := NodeStatus{
			ID: n.id, Addr: n.addr, State: n.stateString(), LastErr: n.lastErr,
			Accepted: n.accepted, Failed: n.failed, TimedOut: n.timedOut, InFlight: n.inflight,
		}
		if n.haveStatus {
			st := n.status
			ns.Status = &st
		}
		out = append(out, ns)
	}
	return out
}

// Drain starts a gateway-side drain of the node: routing stops
// immediately (sessions remap along their ring walk), and once the
// gateway has no in-flight requests to it and the node itself is at
// rest — or the node is unreachable — it is removed from rotation.
// The wait runs in the background; Drain returns immediately.
func (g *Gateway) Drain(id string) error {
	g.mu.Lock()
	n, ok := g.byID[id]
	if !ok {
		g.mu.Unlock()
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if n.removed {
		g.mu.Unlock()
		return fmt.Errorf("cluster: node %s already removed", id)
	}
	already := n.draining
	n.draining = true
	g.mu.Unlock()
	if already {
		return nil
	}
	g.cfg.Logf("cluster: draining node %s", id)
	go g.waitDrain(id)
	return nil
}

// waitDrain polls until the drained node is quiescent, then removes it.
func (g *Gateway) waitDrain(id string) {
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stopCh:
			return
		case <-t.C:
		}
		g.mu.Lock()
		n := g.byID[id]
		quiescent := n.inflight == 0
		if quiescent && n.ready && n.haveStatus {
			quiescent = n.status.QueueLen == 0 && n.status.Counters.InFlight() == 0
		}
		if quiescent {
			n.removed = true
		}
		g.mu.Unlock()
		if quiescent {
			g.cfg.Logf("cluster: node %s drained and removed", id)
			return
		}
	}
}

// ReadyNodes reports how many nodes are currently routable (tests and
// the gateway's own /readyz).
func (g *Gateway) ReadyNodes() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	count := 0
	for _, n := range g.nodes {
		if n.eligible() {
			count++
		}
	}
	return count
}

// uptimeMS mirrors the flepd status field.
func (g *Gateway) uptimeMS() int64 { return time.Since(g.startReal).Milliseconds() }
