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
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"flep/internal/cli"
	"flep/internal/cluster"
	"flep/internal/replay"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx is done, then shuts the gateway down.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return cli.Run("flepgw", args, stdout, stderr, func(c *cli.Command) error { return flepgw(ctx, c) })
}

func flepgw(ctx context.Context, c *cli.Command) error {
	var (
		listen       = c.String("listen", ":7440", "gateway listen address")
		nodesFlag    = c.String("nodes", "", "comma-separated flepd addresses, e.g. :7450,:7451 (required)")
		healthEvery  = c.Duration("health-interval", 200*time.Millisecond, "active node health-check period")
		recordPath   = c.String("record", "", "append every accepted launch to a replay trace (JSONL) at this path")
		recordRotate = c.Int64("record-rotate", 0, "rotate the trace once a segment exceeds this many bytes (0 = never)")
	)
	if err := c.ParseArgs(); err != nil {
		return err
	}
	nodes := cli.SplitList(*nodesFlag)
	if len(nodes) == 0 {
		return c.Usagef("-nodes is required (comma-separated flepd addresses)")
	}
	logger := log.New(c.Stderr, "", log.LstdFlags)

	var recorder *replay.Recorder
	if *recordPath != "" {
		var err error
		recorder, err = replay.NewRecorder(*recordPath, replay.Header{Source: replay.SourceFlepgw, Devices: len(nodes)},
			replay.RecorderOptions{RotateBytes: *recordRotate, WallClock: time.Now})
		if err != nil {
			return err
		}
		// Deferred first, so it runs after the gateway, which records, has
		// closed.
		defer func() {
			if err := recorder.Close(); err != nil {
				logger.Printf("flepgw: closing trace: %v", err)
			}
			logger.Printf("flepgw: trace %s: %d launches recorded", recorder.Path(), recorder.Seq())
		}()
		logger.Printf("flepgw: recording accepted launches to %s", *recordPath)
	}

	gw, err := cluster.New(cluster.Config{
		Nodes:          nodes,
		HealthInterval: *healthEvery,
		Recorder:       recorder,
		Logf:           logger.Printf,
	})
	if err != nil {
		return err
	}
	gw.Start()
	defer func() {
		gw.Close()
		// The gateway-side ledger per node, which cluster_smoke.sh
		// reconciles against each node's own counters.
		statuses := gw.Statuses()
		sort.Slice(statuses, func(i, j int) bool { return statuses[i].ID < statuses[j].ID })
		for _, ns := range statuses {
			logger.Printf("flepgw: node %s (%s) state=%s accepted=%d failed=%d timed_out=%d",
				ns.ID, ns.Addr, ns.State, ns.Accepted, ns.Failed, ns.TimedOut)
		}
	}()

	httpSrv := &http.Server{Handler: gw.Handler()}
	err = cli.Serve(ctx, httpSrv, *listen, func(a net.Addr) {
		logger.Printf("flepgw: serving on %s over %d node(s)", a, len(nodes))
	})
	if err == nil {
		logger.Printf("flepgw: %v: shutting down", context.Cause(ctx))
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("flepgw: http shutdown: %v", err)
	}
	return err
}
