package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"flep/internal/server"
)

// TestRingHomesAreStable pins where the gateway sends pinned launches: one
// sha256 over the full preference walk of 4,096 keys (named clients, and
// anonymous clients' graphs), for two address sets — flepperf's
// gateway_2node nodes and TestWireGoldens' made-up ones. Rewriting or
// moving the ring must leave both sums alone: they are what keep a
// fixed-port run's sessions, and the gateway goldens, where they are.
func TestRingHomesAreStable(t *testing.T) {
	for _, tc := range []struct {
		nodes []string
		want  string
	}{
		{[]string{"127.0.0.1:17461", "127.0.0.1:17462"}, "f80708976cb4b5a9bb779703e18e27ccebc4f4545d1456273f7439eba4b68c73"},
		{[]string{"http://wire-n0", "http://wire-n1"}, "2708c30c15cc50f5031a761b38c9e1f1c28ef77244b04d72a5b232672c71d87c"},
	} {
		g, err := New(Config{Nodes: tc.nodes})
		if err != nil {
			t.Fatal(err)
		}
		g.mu.Lock()
		for _, n := range g.nodes {
			n.ready = true
		}
		g.mu.Unlock()
		h := sha256.New()
		for i := 0; i < 4096; i++ {
			client, req := fmt.Sprintf("client-%d", i), server.LaunchRequest{}
			if i%2 == 1 {
				client, req.Graph = "anonymous", fmt.Sprintf("g%d", i)
			}
			for _, c := range g.candidates(client, req) {
				fmt.Fprintf(h, "%s ", c.addr)
			}
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("nodes %v: walk sha256 %s, want %s", tc.nodes, got, tc.want)
		}
	}
}

// TestPlacementCountsAQueuedLaunchOnce: a node's ledger counts a queued
// launch as in flight, so the node holding one queued launch is less
// loaded than the node running two, whichever way the rotation starts.
// Adding status.QueueLen on top tied the two.
func TestPlacementCountsAQueuedLaunchOnce(t *testing.T) {
	g, err := New(Config{Nodes: []string{"http://queued", "http://running"}})
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	for _, n := range g.nodes {
		n.ready, n.haveStatus = true, true
	}
	g.nodes[0].status.QueueLen, g.nodes[0].status.Counters.Enqueued = 1, 1
	g.nodes[1].status.Counters.Enqueued = 2
	g.mu.Unlock()
	for i := 0; i < 2; i++ { // both rotation starts
		if c := g.candidates("", server.LaunchRequest{Benchmark: "VA"}); c[0].addr != "http://queued" {
			t.Fatalf("placement %d preferred %s, want the node with one queued launch over the one running two", i, c[0].addr)
		}
	}
}
