// Command flepd is the FLEP scheduling daemon: it builds the offline
// artifacts for the selected benchmarks at startup, then serves
// kernel-launch requests from concurrent clients over HTTP, routing them
// through the FLEP runtime engine (HPF, FFS, or EDF) on the simulated
// K40. Under -policy edf, launches carrying a deadline_ms SLO budget
// are ordered earliest-deadline-first and may preempt best-effort work
// when a deadline is at risk; admission control sheds best-effort
// launches (429) while the queue threatens outstanding deadlines.
// With -devices N it runs a fleet of N device shards behind one front
// door: each shard owns its own simulated K40 and event loop, a named
// client (or an anonymous client's graph) is pinned to the shard its key
// hashes to on the gateway's consistent-hash ring, any other launch goes
// to the memory-aware least-loaded shard, and the read endpoints
// aggregate across shards with a device label.
//
// Usage:
//
//	flepd -addr :7450 -policy hpf -spatial -bench VA,MM,SPMV -trace
//	flepd -devices 4 -bench VA,MM     # four-shard fleet
//	flepd -record run.trace           # capture admissions for flepreplay
//
// Endpoints:
//
//	POST /v1/launch     submit a kernel invocation; blocks until done
//	GET  /v1/status     daemon counters, queue depth, virtual clock
//	GET  /v1/sessions   per-client sessions (Figure 5 host states)
//	GET  /v1/benchmarks loaded kernels, tuned L, solo baselines
//	GET  /v1/trace      runtime+device event log (with -trace)
//	POST /v1/pause      park the scheduler (arrivals queue up)
//	POST /v1/resume     unpark
//	GET  /healthz       pure liveness (200 while the process serves)
//	GET  /readyz        readiness for routing (503 while draining)
//	GET  /metrics       Prometheus text exposition (runtime, device,
//	                    policy, and server metric families)
//
// SIGINT/SIGTERM starts a graceful drain: new launches get 503, queued
// and in-flight invocations run to completion, then the process exits.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the opt-in -debug-addr listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flep/internal/cli"
	"flep/internal/flepruntime"
	"flep/internal/replay"
	"flep/internal/server"
)

func main() {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until ctx is done, then drains.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return cli.Run("flepd", args, stdout, stderr, func(c *cli.Command) error { return flepd(ctx, c) })
}

func flepd(ctx context.Context, c *cli.Command) error {
	var (
		addr         = c.String("addr", ":7450", "listen address")
		policy       = c.String("policy", "hpf", "scheduling policy: "+flepruntime.PolicyList())
		spatial      = c.Bool("spatial", false, "enable spatial preemption (HPF only)")
		spatialSMs   = c.Int("spatial-sms", 0, "override yielded SM count for spatial preemption")
		maxOverhead  = c.Float64("max-overhead", 0.10, "FFS overhead budget")
		weightsFlag  = c.String("weights", "", "FFS priority weights, e.g. 1=1,2=2")
		benchFlag    = c.String("bench", "all", "benchmarks to load: comma-separated names or all")
		queueDepth   = c.Int("queue", 256, "admission queue depth (backpressure bound)")
		depPending   = c.Int("dep-pending", 256, "max graph stages parked awaiting prerequisites (per shard)")
		depGraphs    = c.Int("dep-graphs", 256, "max live model-graph instances tracked (per shard)")
		reqTimeout   = c.Duration("timeout", 30*time.Second, "per-request completion wait bound")
		traceOn      = c.Bool("trace", false, "keep a runtime+device event log at /v1/trace")
		pace         = c.Duration("pace", 0, "real-time sleep per simulated event (0 = full speed)")
		drainTimeout = c.Duration("drain-timeout", 60*time.Second, "graceful-shutdown drain bound")
		devices      = c.Int("devices", 1, "number of device shards in the fleet")
		recordPath   = c.String("record", "", "append every admitted launch to a replay trace (JSONL) at this path")
		recordRotate = c.Int64("record-rotate", 0, "rotate the trace once a segment exceeds this many bytes (0 = never)")
		debugAddr    = c.String("debug-addr", "", "optional net/http/pprof listen address (e.g. localhost:6060); empty disables")
	)
	if err := c.ParseArgs(); err != nil {
		return err
	}
	weights, err := parseWeights(*weightsFlag)
	if err != nil {
		return c.Usagef("%v", err)
	}
	logger := log.New(c.Stderr, "", log.LstdFlags)
	cfg := server.FleetConfig{
		Config: server.Config{
			Policy:         *policy,
			Spatial:        *spatial,
			SpatialSMs:     *spatialSMs,
			MaxOverhead:    *maxOverhead,
			Weights:        weights,
			Benchmarks:     parseBenchList(*benchFlag),
			QueueDepth:     *queueDepth,
			DepPending:     *depPending,
			DepGraphs:      *depGraphs,
			RequestTimeout: *reqTimeout,
			Trace:          *traceOn,
			Pace:           *pace,
			Logf:           logger.Printf,
		},
		Devices: *devices,
	}
	if *recordPath != "" {
		recorder, err := replay.NewRecorder(*recordPath, cfg.Config.RecorderHeader(*devices),
			replay.RecorderOptions{RotateBytes: *recordRotate, WallClock: time.Now})
		if err != nil {
			return err
		}
		// Deferred first, so it runs after the fleet, whose loops record,
		// has drained.
		defer func() {
			if err := recorder.Close(); err != nil {
				logger.Printf("flepd: closing trace: %v", err)
			}
			logger.Printf("flepd: trace %s: %d launches recorded (replay with: flepreplay replay -trace %s)",
				recorder.Path(), recorder.Seq(), recorder.Path())
		}()
		cfg.Config.Recorder = recorder
		logger.Printf("flepd: recording admitted launches to %s", *recordPath)
	}

	logger.Printf("flepd: building offline artifacts (policy=%s spatial=%v devices=%d)",
		cfg.Policy, cfg.Spatial, cfg.Devices)
	start := time.Now()
	srv, err := server.NewFleet(cfg)
	if err != nil {
		return err
	}
	logger.Printf("flepd: offline phase done in %v", time.Since(start).Round(time.Millisecond))

	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux at import; the API below
		// uses its own mux, so the profiling surface only exists on this
		// separate opt-in listener (never exposed on the serving address).
		dbg := &http.Server{Addr: *debugAddr}
		defer dbg.Close()
		go func() {
			logger.Printf("flepd: pprof debug listener on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("flepd: debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	err = cli.Serve(ctx, httpSrv, *addr, func(a net.Addr) { logger.Printf("flepd: serving on %s", a) })
	if err == nil {
		logger.Printf("flepd: %v: draining (bound %v)", context.Cause(ctx), *drainTimeout)
	}
	return errors.Join(err, drain(logger, srv, httpSrv, *drainTimeout))
}

// drain shuts the fleet down within bound, then the HTTP server, logs the
// fleet's accounting and holds every device, so the fleet, to exactly-once.
func drain(logger *log.Logger, srv *server.Fleet, httpSrv *http.Server, bound time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("flepd: drain incomplete: %v", err)
	} else {
		for i := 0; i < srv.Devices(); i++ {
			logger.Printf("flepd: device %d drained cleanly at virtual %v", i, srv.Shard(i).VirtualNow())
		}
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("flepd: http shutdown: %v", err)
	}
	c := srv.Status().Counters
	logger.Printf("flepd: fleet enqueued=%d completed=%d submit_errors=%d rejected_full=%d timed_out=%d",
		c.Enqueued, c.Completed, c.SubmitErrors, c.RejectedFull, c.TimedOut)
	for i := 0; i < srv.Devices(); i++ {
		if srv.Shard(i).Status().Counters.InFlight() != 0 {
			return fmt.Errorf("device %d exactly-once invariant violated at exit", i)
		}
	}
	return nil
}

// parseBenchList turns "VA,MM" into a name slice; "all"/"" selects the
// whole suite (nil).
func parseBenchList(s string) []string {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return nil
	}
	return cli.SplitList(s)
}

// parseWeights parses "1=1,2=2.5" into a priority→weight map.
func parseWeights(s string) (map[int]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := map[int]float64{}
	for _, f := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok {
			return nil, fmt.Errorf("bad weight %q (want PRIO=WEIGHT)", f)
		}
		prio, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("bad priority in %q: %v", f, err)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight in %q", f)
		}
		out[prio] = w
	}
	return out, nil
}
