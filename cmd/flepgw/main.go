// Command flepgw is the FLEP cluster gateway: one HTTP front door over N
// independent flepd nodes, speaking the same /v1 API a single daemon
// does so clients (flepload included) point at the gateway unchanged.
//
//	flepgw -listen :7440 -nodes :7450,:7451
//
// Routing: named clients get consistent-hash session affinity (a
// drained or dead node remaps only its own sessions); anonymous
// launches go to the node with the most free device memory headroom and
// least load. Transport failures and node saturation retry on the next
// candidate node; when every node is saturated the gateway answers 429
// with the largest backend Retry-After it saw.
//
// Endpoints:
//
//	POST /v1/launch              route a launch to a node; blocks until done
//	GET  /v1/status              cluster-summed counters plus per-node detail
//	GET  /v1/sessions            sessions merged across nodes
//	GET  /v1/benchmarks          the (homogeneous) node catalog
//	GET  /v1/trace               node traces merged in global (time, node, device) order
//	GET  /v1/nodes               per-node routing state and gateway-side accounting
//	POST /v1/nodes/{id}/drain    stop routing to the node, wait it out, remove it
//	GET  /healthz                gateway liveness
//	GET  /readyz                 200 iff at least one node is routable
//	GET  /metrics                gateway families + node expositions relabeled with node=<id>
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"flep/internal/cluster"
	"flep/internal/replay"
)

func main() {
	var (
		listen       = flag.String("listen", ":7440", "gateway listen address")
		nodesFlag    = flag.String("nodes", "", "comma-separated flepd addresses, e.g. :7450,:7451 (required)")
		healthEvery  = flag.Duration("health-interval", 200*time.Millisecond, "active node health-check period")
		recordPath   = flag.String("record", "", "append every accepted launch to a replay trace (JSONL) at this path")
		recordRotate = flag.Int64("record-rotate", 0, "rotate the trace once a segment exceeds this many bytes (0 = never)")
	)
	flag.Parse()

	var nodes []string
	for _, a := range strings.Split(*nodesFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			nodes = append(nodes, a)
		}
	}
	if len(nodes) == 0 {
		log.Fatalf("flepgw: -nodes is required (comma-separated flepd addresses)")
	}

	var recorder *replay.Recorder
	if *recordPath != "" {
		var err error
		recorder, err = replay.NewRecorder(*recordPath, replay.Header{
			Source:  replay.SourceFlepgw,
			Devices: len(nodes),
		}, replay.RecorderOptions{RotateBytes: *recordRotate, WallClock: time.Now})
		if err != nil {
			log.Fatalf("flepgw: %v", err)
		}
		log.Printf("flepgw: recording accepted launches to %s", *recordPath)
	}

	gw, err := cluster.New(cluster.Config{
		Nodes:          nodes,
		HealthInterval: *healthEvery,
		Recorder:       recorder,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatalf("flepgw: %v", err)
	}
	gw.Start()

	httpSrv := &http.Server{Addr: *listen, Handler: gw.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("flepgw: serving on %s over %d node(s)", *listen, len(nodes))

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("flepgw: %v: shutting down", sig)
	case err := <-errCh:
		log.Fatalf("flepgw: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("flepgw: http shutdown: %v", err)
	}
	gw.Close()
	logAccounting(gw)
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			log.Printf("flepgw: closing trace: %v", err)
		}
		log.Printf("flepgw: trace %s: %d launches recorded", recorder.Path(), recorder.Seq())
	}
}

// logAccounting prints the gateway-side terminal-response ledger per
// node, the reconciliation surface for cluster_smoke.sh.
func logAccounting(gw *cluster.Gateway) {
	statuses := gw.Statuses()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
	for _, ns := range statuses {
		log.Printf("flepgw: node %s (%s) state=%s accepted=%d failed=%d timed_out=%d",
			ns.ID, ns.Addr, ns.State, ns.Accepted, ns.Failed, ns.TimedOut)
	}
}
