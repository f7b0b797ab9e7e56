// Command flepload drives a running flepd with concurrent client
// sessions and reports serving metrics: throughput, real-time latency
// percentiles, virtual-time turnaround, and ANTT (the paper's
// responsiveness metric, computed from per-request solo-normalized
// turnaround). It finishes by verifying the daemon's exactly-once
// invariant: every accepted launch completed exactly once, with no lost
// or duplicated invocations.
//
// Usage:
//
//	flepload -addr http://127.0.0.1:7450 -clients 100 -n 10 \
//	         -bench VA,MM -class small -prio 1=0.7,2=0.3
//
// -addr may also point at a flepgw gateway: the surface is identical,
// results carry an X-Flep-Node header naming the serving node (so
// exactly-once verification keys on (node, device, id)), and the
// node-labeled /metrics exposition yields a per-node throughput/ANTT
// breakdown in the delta report.
//
// -rate 0 (default) runs closed-loop clients: each client submits its
// next launch as soon as the previous one completes. A positive -rate
// runs open-loop: each client submits every 1/rate seconds regardless of
// completions, so the daemon's admission queue and 429 backpressure are
// exercised. 429s are retried after the server's Retry-After hint and
// do not count as failures.
//
// -deadline marks launches latency-critical with that SLO budget
// (virtual time from admission); -deadline-share makes only a fraction
// of them so, leaving the rest best-effort — the one-command way to
// drive a mixed LC/BE workload against an EDF daemon. The report then
// adds client-observed SLO attainment, and the daemon deltas include
// flep_slo_* and any best-effort launches shed by admission control.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flep/internal/cli"
	"flep/internal/metrics"
	"flep/internal/model"
	"flep/internal/obs"
	"flep/internal/replay"
	"flep/internal/server"
)

// sample is one launch's terminal answer as its client saw it: the
// finished launch in the shared results vocabulary, plus what only the
// client knows. node is the serving node from the gateway's X-Flep-Node
// header (empty when the target is a single flepd).
type sample struct {
	metrics.KernelRun
	status      int // HTTP status; 0 on a transport or decode error
	id          int
	device      int
	node        string
	realLatency time.Duration
}

// requestTimeout is each launch's completion wait, and maxRetries how
// many 429s a plain launch absorbs before the last one is its answer.
const (
	requestTimeout = 2 * time.Minute
	maxRetries     = 200
)

type stats struct {
	retries  atomic.Int64 // 429s absorbed
	mu       sync.Mutex
	samples  []sample // the 200s
	timeouts int64    // 504s
	errors   int64
	models   map[string]*modelAgg // per-model graph accounting (-model)
}

// modelAgg accumulates one model's graph outcomes across all clients: the
// graph tally (its stages are the ones that answered 200, its canceled
// stages the 409s), the stages shed with 429, and the completed graphs'
// real-time makespans for the percentiles.
type modelAgg struct {
	metrics.GraphTally
	stagesShed int64
	makespans  []time.Duration
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("flepload", args, stdout, stderr, flepload)
}

func flepload(c *cli.Command) error {
	var (
		addr      = c.String("addr", "http://127.0.0.1:7450", "flepd base URL")
		clients   = c.Int("clients", 100, "concurrent client sessions")
		perC      = c.Int("n", 10, "launches per client")
		rate      = c.Float64("rate", 0, "per-client open-loop launches/sec (0 = closed loop)")
		benchCSV  = c.String("bench", "", "benchmarks to launch (empty = discover from daemon)")
		class     = c.String("class", "small", "input class: large, small, trivial")
		prioMix   = c.String("prio", "1=0.5,2=0.5", "priority mix, e.g. 1=0.7,2=0.3")
		seed      = c.Int64("seed", 1, "workload-mix random seed")
		deadline  = c.Duration("deadline", 0, "SLO budget per latency-critical launch in virtual time (0 = best-effort)")
		dlShare   = c.Float64("deadline-share", 1.0, "fraction of launches that carry the -deadline budget (rest stay best-effort)")
		modelCSV  = c.String("model", "", "model-graph workload: comma-separated NAME[:DEADLINE] specs, where NAME is a preset graph (resnet, bert, diamond), or a path to a JSON graph file, and DEADLINE an SLO budget for the graph's terminal stage. Clients are dealt specs round-robin and submit whole kernel DAGs; deadline-bearing models run latency-critical (priority 2), the rest best-effort (priority 1)")
		record    = c.String("record", "", "write a client-side replay trace (JSONL) to this path")
		verifySrv = c.Bool("verify-status", true, "reconcile server /v1/status counters after the run (disable when a cluster node is killed mid-run: the dead node's completions leave the gateway's summed view)")
	)
	if err := c.ParseArgs(); err != nil {
		return err
	}

	// Accept a bare host:port the way curl does.
	if !strings.Contains(*addr, "://") {
		*addr = "http://" + *addr
	}

	mix, err := parseMix(*prioMix)
	if err != nil {
		return c.Usagef("-prio: %v", err)
	}
	specs, err := parseModelSpecs(*modelCSV)
	if err != nil {
		return c.Usagef("-model: %v", err)
	}
	var benches []string
	if len(specs) == 0 {
		benches = cli.SplitList(*benchCSV)
		if len(benches) == 0 {
			benches, err = discoverBenchmarks(*addr)
			if err != nil {
				return fmt.Errorf("discovering benchmarks: %w", err)
			}
		}
		if len(benches) == 0 {
			return errors.New("no benchmarks to launch")
		}
	}
	stdout := c.Stdout
	if len(specs) > 0 {
		names := make([]string, len(specs))
		for i, sp := range specs {
			names[i] = sp.String()
		}
		fmt.Fprintf(stdout, "flepload: %d clients × %d graphs, models=%s rate=%s\n",
			*clients, *perC, strings.Join(names, ","), rateString(*rate))
	} else {
		fmt.Fprintf(stdout, "flepload: %d clients × %d launches, benches=%s class=%s mix=%s rate=%s\n",
			*clients, *perC, strings.Join(benches, ","), *class, *prioMix, rateString(*rate))
	}

	httpc := &http.Client{Timeout: requestTimeout + 10*time.Second}
	st := &stats{models: map[string]*modelAgg{}}
	var recorder *replay.Recorder
	if *record != "" {
		sorted := append([]string(nil), benches...)
		for _, sp := range specs {
			sorted = append(sorted, sp.graph.Benchmarks()...)
		}
		sort.Strings(sorted)
		sorted = slices.Compact(sorted)
		recorder, err = replay.NewRecorder(*record, replay.Header{
			Source:     replay.SourceFlepload,
			Benchmarks: sorted,
			Seed:       *seed,
		}, replay.RecorderOptions{WallClock: time.Now})
		if err != nil {
			return err
		}
	}
	before, merr := scrapeMetrics(*addr)
	if merr != nil {
		fmt.Fprintf(stdout, "flepload: no /metrics before run (%v); deltas disabled\n", merr)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cc := clientConfig{
				addr: *addr, id: fmt.Sprintf("load-%04d", i),
				benches: benches, class: *class, mix: mix,
				n: *perC, rate: *rate,
				deadline: *deadline, dlShare: *dlShare,
				rng: rand.New(rand.NewSource(*seed + int64(i))), jitter: jitterSource(*seed, i),
				rec: recorder, runStart: start,
			}
			if len(specs) > 0 {
				runGraphClient(httpc, st, cc, specs[i%len(specs)])
			} else {
				runClient(httpc, st, cc)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	if recorder != nil {
		if err := recorder.Close(); err != nil {
			fmt.Fprintf(stdout, "flepload: closing trace: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "flepload: recorded %d launches to %s\n", recorder.Seq(), recorder.Path())
		}
	}

	report(stdout, st, wall)
	if err := verifyExactlyOnce(*addr, st, *verifySrv); err != nil {
		fmt.Fprintf(stdout, "exactly-once:  FAIL: %v\n", err)
		return fmt.Errorf("exactly-once: %w", err)
	}
	if *verifySrv {
		fmt.Fprintf(stdout, "exactly-once:  OK (no lost or duplicated invocations)\n")
	} else {
		fmt.Fprintf(stdout, "exactly-once:  OK client-side (unique invocation per result; server reconcile skipped)\n")
	}

	// Scrape after the daemon is at rest (verifyExactlyOnce polled for
	// that), so the deltas cover exactly this run's work.
	if merr == nil {
		after, err := scrapeMetrics(*addr)
		if err != nil {
			fmt.Fprintf(stdout, "flepload: no /metrics after run: %v\n", err)
			return nil
		}
		reportMetricsDeltas(stdout, before, after, wall)
	}
	return nil
}

// scrapeMetrics fetches and parses the daemon's Prometheus exposition.
func scrapeMetrics(addr string) (obs.Snapshot, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// reportMetricsDeltas prints the daemon-side view of the run: what the
// scheduler, device, and policy did while the clients were hammering it.
// Everything is an after−before delta, so a long-lived daemon's history
// does not pollute this run's numbers.
func reportMetricsDeltas(w io.Writer, before, after obs.Snapshot, wall time.Duration) {
	// SumMatching tolerates the fleet's injected device label: a family
	// delta sums every shard's series, and a ("kind", "primary") match
	// still selects the right members whatever other labels ride along.
	d := func(name string, pairs ...string) float64 {
		return after.SumMatching(name, pairs...) - before.SumMatching(name, pairs...)
	}
	mean := func(name string) (float64, float64) {
		n := d(name + "_count")
		if n == 0 {
			return 0, 0
		}
		return d(name+"_sum") / n, n
	}

	fmt.Fprintf(w, "\ndaemon deltas (/metrics, after − before, all devices):\n")
	fmt.Fprintf(w, "  runtime:     submits=%.0f dispatches=%.0f (primary=%.0f guest=%.0f)\n",
		d("flep_runtime_submits_total"),
		d("flep_runtime_dispatches_total"),
		d("flep_runtime_dispatches_total", "kind", "primary"),
		d("flep_runtime_dispatches_total", "kind", "guest"))
	fmt.Fprintf(w, "  preemptions: temporal=%.0f spatial=%.0f aborted=%.0f\n",
		d("flep_runtime_preemptions_total", "mode", "temporal"),
		d("flep_runtime_preemptions_total", "mode", "spatial"),
		d("flep_runtime_preempt_aborts_total"))
	if m, n := mean("flep_runtime_drain_latency_seconds"); n > 0 {
		fmt.Fprintf(w, "  drains:      %.0f, mean latency %v (virtual)\n", n, secs(m))
	}
	if m, n := mean("flep_runtime_overhead_prediction_error_seconds"); n > 0 {
		fmt.Fprintf(w, "  overhead:    mean |predicted − realized| = %v over %.0f drains\n", secs(m), n)
	}
	if rot := d("flep_ffs_epochs_total"); rot > 0 {
		fmt.Fprintf(w, "  ffs epochs:  rotations=%.0f extensions=%.0f evictions=%.0f\n",
			d("flep_ffs_epochs_total", "kind", "rotation"),
			d("flep_ffs_epochs_total", "kind", "extension"),
			d("flep_ffs_evictions_total"))
	}
	fmt.Fprintf(w, "  device:      launches=%.0f ctas=%.0f drains=%.0f completions=%.0f\n",
		d("flep_device_launches_total"), d("flep_device_ctas_placed_total"),
		d("flep_device_drains_total"), d("flep_device_completions_total"))
	if m, n := mean("flep_server_request_latency_seconds"); n > 0 {
		fmt.Fprintf(w, "  server:      %.0f results, mean real latency %v\n", n, secs(m))
	}
	if slo := d("flep_slo_attained_total") + d("flep_slo_missed_total"); slo > 0 {
		line := fmt.Sprintf("  slo:         attained=%.0f missed=%.0f",
			d("flep_slo_attained_total"), d("flep_slo_missed_total"))
		if m, n := mean("flep_slo_margin_seconds"); n > 0 {
			line += fmt.Sprintf(" mean-margin=%v", secs(m))
		}
		if shed := d("flep_server_launches_total", "outcome", "rejected_best_effort_shed"); shed > 0 {
			line += fmt.Sprintf(" best-effort-shed=%.0f", shed)
		}
		fmt.Fprintln(w, line)
	}

	// When the target is a flepgw gateway its /metrics carries every
	// node's exposition relabeled with node=<id>; splitting the deltas by
	// that label recovers each node's share of the run without asking the
	// nodes directly.
	groups := map[string]*metrics.Tally{}
	for _, id := range after.LabelValues("flep_server_launches_total", "node") {
		dn := func(name string, pairs ...string) float64 {
			return d(name, append(pairs, "node", id)...)
		}
		groups["node "+id] = &metrics.Tally{
			Completed:   int64(dn("flep_server_launches_total", "outcome", "completed")),
			NTTSum:      dn("flep_server_ntt_sum"),
			NTTN:        int64(dn("flep_server_ntt_count")),
			Preemptions: int64(dn("flep_runtime_preemptions_total")),
		}
	}
	writeGroups(w, "per node (node-labeled metrics deltas)", groups, wall)
}

// secs renders a float seconds value as a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

type clientConfig struct {
	addr, id string
	benches  []string
	class    string
	mix      []prioShare
	n        int
	rate     float64
	deadline time.Duration // SLO budget; zero = best-effort
	dlShare  float64       // fraction of launches carrying the budget
	rng      *rand.Rand
	jitter   *rand.Rand       // retry delays only, so 429s leave the launch mix alone
	rec      *replay.Recorder // nil unless -record
	runStart time.Time        // shared zero point for trace arrival offsets
}

// paced runs a client's n iterations: back to back in a closed loop, or
// one per 1/rate seconds open-loop, whether or not the last completed.
func (cc clientConfig) paced(iteration func(i int)) {
	var tick <-chan time.Time
	if cc.rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cc.rate))
		defer t.Stop()
		tick = t.C
	}
	for i := 0; i < cc.n; i++ {
		if tick != nil {
			<-tick
		}
		iteration(i)
	}
}

// runClient submits the client's plain launches, each absorbing 429
// backpressure, and files their terminal answers.
func runClient(httpc *http.Client, st *stats, cc clientConfig) {
	cc.paced(func(int) {
		req := server.LaunchRequest{
			Client:    cc.id,
			Benchmark: cc.benches[cc.rng.Intn(len(cc.benches))],
			Class:     cc.class,
			Priority:  pickPriority(cc.mix, cc.rng.Float64()),
			TimeoutMS: int(requestTimeout / time.Millisecond),
		}
		if cc.deadline > 0 && cc.rng.Float64() < cc.dlShare {
			req.DeadlineMS = int(cc.deadline / time.Millisecond)
		}
		s := post(httpc, st, cc, req, maxRetries)
		st.mu.Lock()
		st.fileLocked(s)
		st.mu.Unlock()
	})
}

// fileLocked files one terminal answer: a 200's sample, a 504 as a
// timeout, anything else as an error. The caller holds st.mu.
func (st *stats) fileLocked(s sample) {
	switch s.status {
	case http.StatusOK:
		st.samples = append(st.samples, s)
	case http.StatusGatewayTimeout:
		st.timeouts++
	default:
		st.errors++
	}
}

// post is the one way a launch reaches the daemon: marshal, POST, decode
// and drain the answer, read the serving node, and — for a 200 under
// -record — append the launch to the client-side trace. A 429 is retried
// after the server's Retry-After hint up to maxRetry times; any other
// answer, and the 429 that exhausts the retries, is terminal.
func post(httpc *http.Client, st *stats, cc clientConfig, req server.LaunchRequest, maxRetry int) sample {
	body, _ := json.Marshal(req)
	for attempt := 0; ; attempt++ {
		begin := time.Now()
		resp, err := httpc.Post(cc.addr+"/v1/launch", "application/json", bytes.NewReader(body))
		if err != nil {
			return sample{}
		}
		var res server.LaunchResult
		decErr := json.NewDecoder(resp.Body).Decode(&res)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s := sample{
			KernelRun: res.Run(), status: resp.StatusCode,
			id: res.ID, device: res.Device, node: resp.Header.Get("X-Flep-Node"),
			realLatency: time.Since(begin),
		}
		switch {
		case s.status == http.StatusTooManyRequests && attempt < maxRetry:
			st.retries.Add(1)
			sleep(retryAfter(resp, cc.jitter))
			continue
		case s.status == http.StatusOK && decErr != nil:
			s.status = 0
		case s.status == http.StatusOK && cc.rec != nil:
			// Client-side traces record real arrival offsets (the daemon's
			// virtual clock is not visible here), so they replay in timed
			// mode only; Step stays zero.
			rec := req.Record()
			rec.At, rec.Device, rec.Node = begin.Sub(cc.runStart).Nanoseconds(), s.device, s.node
			cc.rec.Record(rec)
		}
		return s
	}
}

// ---- model-graph clients (-model) ----

// modelSpec is one parsed -model element: a loaded DAG plus the SLO
// budget its terminal stage carries (zero = best-effort model).
type modelSpec struct {
	name     string
	graph    *model.Graph
	deadline time.Duration
}

func (sp modelSpec) String() string {
	if sp.deadline > 0 {
		return fmt.Sprintf("%s:%v", sp.name, sp.deadline)
	}
	return sp.name
}

// parseModelSpecs parses "resnet:5ms,bert" into model specs. A name that
// looks like a path (contains a separator or dot) loads a JSON graph
// file; anything else must be a preset.
func parseModelSpecs(s string) ([]modelSpec, error) {
	var out []modelSpec
	for _, f := range cli.SplitList(s) {
		name, dl, hasDL := strings.Cut(f, ":")
		load := model.ByName
		if strings.ContainsAny(name, "/.") {
			load = model.Load
		}
		g, err := load(name)
		if err != nil {
			return nil, fmt.Errorf("model %q: %v", name, err)
		}
		sp := modelSpec{name: g.Name, graph: g}
		if hasDL {
			d, err := time.ParseDuration(dl)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("model %q: bad deadline %q (want a positive duration)", name, dl)
			}
			sp.deadline = d
		} else if g.DeadlineMS > 0 {
			sp.deadline = time.Duration(g.DeadlineMS) * time.Millisecond
		}
		out = append(out, sp)
	}
	return out, nil
}

// submitGraph posts every stage of one graph instance concurrently — the
// daemon's pending-dependency table enforces ordering — and returns when
// all stages are terminal. Graph stages are never retried: a 429 or 409
// is the graph's outcome, not an obstacle (the DISB-style client measures
// what the serving system did, it does not paper over shedding).
func submitGraph(httpc *http.Client, st *stats, cc clientConfig, sp modelSpec, graphID string) []sample {
	g := sp.graph
	terminal := g.Terminal().Name
	prio := 1
	if sp.deadline > 0 {
		prio = 2
	}
	outs := make([]sample, len(g.Stages))
	var wg sync.WaitGroup
	for i := range g.Stages {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stg := &g.Stages[i]
			req := server.LaunchRequest{
				Client: cc.id, Benchmark: stg.Bench, Class: stg.Class,
				Priority: prio, TimeoutMS: int(requestTimeout / time.Millisecond),
				Model: sp.name, Graph: graphID, Stage: stg.Name,
				After: stg.After, Stages: len(g.Stages),
			}
			if stg.Name == terminal && sp.deadline > 0 {
				req.DeadlineMS = int(sp.deadline / time.Millisecond)
			}
			outs[i] = post(httpc, st, cc, req, 0)
		}(i)
	}
	wg.Wait()
	return outs
}

// runGraphClient is the dependent-client loop: each iteration submits one
// whole graph instance (closed loop by default; -rate paces iterations
// open-loop), then folds the outcome into the per-model aggregates.
func runGraphClient(httpc *http.Client, st *stats, cc clientConfig, sp modelSpec) {
	cc.paced(func(i int) {
		begin := time.Now()
		outs := submitGraph(httpc, st, cc, sp, fmt.Sprintf("%s-g%04d", cc.id, i))
		st.noteGraph(sp.name, outs, time.Since(begin))
	})
}

// noteGraph folds one graph instance's stage outcomes into the stats.
func (st *stats) noteGraph(name string, outs []sample, makespan time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	agg := st.models[name]
	if agg == nil {
		agg = &modelAgg{}
		st.models[name] = agg
	}
	agg.Started++
	allOK := true
	for _, o := range outs {
		allOK = allOK && o.status == http.StatusOK
		switch o.status {
		case http.StatusOK:
			agg.Stages.Add(o.KernelRun)
		case http.StatusConflict:
			agg.StagesCanceled++
			continue
		case http.StatusTooManyRequests:
			agg.stagesShed++
			continue
		}
		st.fileLocked(o)
	}
	agg.Close(allOK, makespan)
	if allOK {
		agg.makespans = append(agg.makespans, makespan)
	}
}

// modelLine renders one model's line of the "per model" report: graph
// completion, stage outcomes, ANTT over the stages with a baseline, SLO
// attainment on the deadline-bearing ones, and real graph makespan (first
// POST to last stage done).
func modelLine(name string, a *modelAgg) string {
	line := fmt.Sprintf("  model %-10s graphs=%d completed=%d canceled=%d  stages ok=%d canceled=%d shed=%d",
		name, a.Started, a.Completed, a.Canceled, a.Stages.Completed, a.StagesCanceled, a.stagesShed)
	if a.Stages.NTTN > 0 {
		line += fmt.Sprintf("  ANTT %.3f", a.Stages.ANTT())
	}
	if tracked := a.Stages.Attained + a.Stages.Missed; tracked > 0 {
		line += fmt.Sprintf("  slo=%d/%d", a.Stages.Attained, tracked)
	}
	if len(a.makespans) > 0 {
		sorted := slices.Sorted(slices.Values(a.makespans))
		line += fmt.Sprintf("  makespan p50=%v p99=%v",
			metrics.Percentile(sorted, 0.50).Round(time.Microsecond),
			metrics.Percentile(sorted, 0.99).Round(time.Microsecond))
	}
	return line
}

// sleep is how a refused client waits out its retry delay; a test of the
// retry path swaps it out.
var sleep = time.Sleep

// retryAfter is how long a refused client waits before resubmitting: a
// twentieth of the server's Retry-After hint (an upper bound for a lone
// client), or 50 ms without one, scaled by a factor in [0.5, 1.5) from the
// client's jitter source, so the clients refused in one admission batch do
// not all come back at one instant. The hint is RFC 9110's delay-seconds,
// digits only; anything else, or a hint past 2^32-1 s, counts as none.
func retryAfter(resp *http.Response, jitter *rand.Rand) time.Duration {
	d := 50 * time.Millisecond
	if secs, err := strconv.ParseUint(resp.Header.Get("Retry-After"), 10, 32); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second / 20
	}
	return time.Duration((0.5 + jitter.Float64()) * float64(d))
}

// jitterSource is client c's retry-delay source under -seed: seeded apart
// from the client's launch-mix source (seed+c), by complement.
func jitterSource(seed int64, c int) *rand.Rand { return rand.New(rand.NewSource(^(seed + int64(c)))) }

func report(w io.Writer, st *stats, wall time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := len(st.samples)
	fmt.Fprintf(w, "\nrequests:      ok=%d timeouts=%d errors=%d backpressure-429s=%d\n",
		n, st.timeouts, st.errors, st.retries.Load())
	fmt.Fprintf(w, "wall time:     %v   throughput %.1f launches/s\n",
		wall.Round(time.Millisecond), float64(n)/wall.Seconds())
	if n == 0 {
		return
	}
	lat := make([]time.Duration, n)
	turn := make([]time.Duration, n)
	var all metrics.Tally
	for i, s := range st.samples {
		lat[i], turn[i] = s.realLatency, s.Turnaround
		all.Add(s.KernelRun)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(turn, func(i, j int) bool { return turn[i] < turn[j] })
	fmt.Fprintf(w, "real latency:  p50=%v p90=%v p99=%v max=%v\n",
		metrics.Percentile(lat, 0.50).Round(time.Microsecond), metrics.Percentile(lat, 0.90).Round(time.Microsecond),
		metrics.Percentile(lat, 0.99).Round(time.Microsecond), lat[n-1].Round(time.Microsecond))
	fmt.Fprintf(w, "virtual turn:  p50=%v p99=%v mean-wait=%v\n",
		metrics.Percentile(turn, 0.50).Round(time.Microsecond), metrics.Percentile(turn, 0.99).Round(time.Microsecond),
		(all.Waiting / time.Duration(n)).Round(time.Microsecond))
	fmt.Fprintf(w, "ANTT:          %.3f   preemptions=%d\n", all.ANTT(), all.Preemptions)

	// SLO attainment over the deadline-bearing completions (absent when
	// the run was pure best-effort).
	if tracked := all.Attained + all.Missed; tracked > 0 {
		fmt.Fprintf(w, "SLO:           attained=%d missed=%d rate=%.1f%% mean-margin=%v (virtual)\n",
			all.Attained, all.Missed, 100*all.AttainRate(), all.MeanMargin().Round(time.Microsecond))
	}

	// Per-model breakdown when the run submitted kernel DAGs (-model).
	if len(st.models) > 0 {
		fmt.Fprintf(w, "per model:\n")
		for _, name := range slices.Sorted(maps.Keys(st.models)) {
			fmt.Fprintln(w, modelLine(name, st.models[name]))
		}
	}

	// Per-node breakdown when the target is a flepgw cluster, as seen from
	// the client side via the X-Flep-Node header (the metrics-delta report
	// adds the server-side view of the same split), and per-shard
	// breakdown when the daemon is a fleet.
	writeGroups(w, "per node", groupSamples(st.samples, func(s sample) string { return "node " + s.node }), wall)
	writeGroups(w, "per device", groupSamples(st.samples, func(s sample) string { return fmt.Sprintf("device %d", s.device) }), wall)
}

// groupSamples folds the client-side samples by key.
func groupSamples(samples []sample, key func(sample) string) map[string]*metrics.Tally {
	groups := map[string]*metrics.Tally{}
	for _, s := range samples {
		g := groups[key(s)]
		if g == nil {
			g = &metrics.Tally{}
			groups[key(s)] = g
		}
		g.Add(s.KernelRun)
	}
	return groups
}

// writeGroups prints the one per-key breakdown of a run — each key's
// completions, share of the total, throughput, ANTT and preemptions —
// under title. A run that never split (fewer than two keys) prints
// nothing. Keys sort shorter-first so "device 2" precedes "device 10".
func writeGroups(w io.Writer, title string, groups map[string]*metrics.Tally, wall time.Duration) {
	if len(groups) < 2 {
		return
	}
	keys := make([]string, 0, len(groups))
	var total int64
	for k, g := range groups {
		keys = append(keys, k)
		total += g.Completed
	}
	sort.Slice(keys, func(i, j int) bool {
		if len(keys[i]) != len(keys[j]) {
			return len(keys[i]) < len(keys[j])
		}
		return keys[i] < keys[j]
	})
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range keys {
		g := groups[k]
		share := 0.0
		if total > 0 {
			share = 100 * float64(g.Completed) / float64(total)
		}
		fmt.Fprintf(w, "  %-12s ok=%d (%4.1f%%)  throughput %.1f launches/s  ANTT %.3f  preemptions=%d\n",
			k+":", g.Completed, share, float64(g.Completed)/wall.Seconds(), g.ANTT(), g.Preemptions)
	}
}

// verifyExactlyOnce checks the acceptance invariant against both views:
// client-side (every OK response carried a unique invocation ID) and —
// when reconcile is true — server-side (enqueued == completed +
// submit_errors once at rest).
func verifyExactlyOnce(addr string, st *stats, reconcile bool) error {
	st.mu.Lock()
	// Invocation IDs are assigned per device shard per node, so
	// uniqueness holds on the (node, device, id) triple cluster-wide.
	// Against a single flepd the node is empty and this degenerates to
	// the (device, id) pair.
	type devID struct {
		node       string
		device, id int
	}
	ids := map[devID]int{}
	for _, s := range st.samples {
		ids[devID{s.node, s.device, s.id}]++
	}
	oks := len(st.samples)
	timeouts := st.timeouts
	st.mu.Unlock()
	for k, c := range ids {
		if c != 1 {
			return fmt.Errorf("node %q device %d invocation id %d delivered %d times", k.node, k.device, k.id, c)
		}
	}
	if !reconcile {
		return nil
	}
	// Timed-out requests complete asynchronously; poll briefly for rest.
	var sb server.Status
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := getJSON(addr+"/v1/status", &sb); err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if sb.Counters.InFlight() == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never reached rest: enqueued=%d completed=%d submit_errors=%d",
				sb.Counters.Enqueued, sb.Counters.Completed, sb.Counters.SubmitErrors)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if want := int64(oks) + timeouts; sb.Counters.Completed < want {
		return fmt.Errorf("daemon completed %d < client-observed %d", sb.Counters.Completed, want)
	}
	return nil
}

// ---- small helpers ----

type prioShare struct {
	prio  int
	share float64
}

// parseMix parses "1=0.7,2=0.3" into cumulative priority shares.
func parseMix(s string) ([]prioShare, error) {
	var out []prioShare
	total := 0.0
	for _, f := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(f), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix element %q (want PRIO=SHARE)", f)
		}
		prio, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("bad priority %q", k)
		}
		share, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(share) || math.IsInf(share, 0) || share < 0 {
			return nil, fmt.Errorf("bad share %q", v)
		}
		total += share
		out = append(out, prioShare{prio, share})
	}
	if len(out) == 0 || total <= 0 {
		return nil, fmt.Errorf("empty priority mix")
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("priority shares sum past the largest float")
	}
	for i := range out {
		out[i].share /= total
	}
	return out, nil
}

// pickPriority maps a uniform [0,1) draw onto the mix.
func pickPriority(mix []prioShare, u float64) int {
	acc := 0.0
	for _, m := range mix {
		acc += m.share
		if u < acc {
			return m.prio
		}
	}
	return mix[len(mix)-1].prio
}

// getJSON decodes the answer to GET url into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

func discoverBenchmarks(addr string) ([]string, error) {
	var infos []server.BenchmarkInfo
	if err := getJSON(addr+"/v1/benchmarks", &infos); err != nil {
		return nil, err
	}
	out := make([]string, len(infos))
	for i, bi := range infos {
		out[i] = bi.Name
	}
	return out, nil
}

func rateString(r float64) string {
	if r <= 0 {
		return "closed-loop"
	}
	return fmt.Sprintf("%.1f/s open-loop", r)
}
