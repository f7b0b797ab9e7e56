package perf

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"flep/internal/kernels"
	"flep/internal/obs"
	"flep/internal/server"
)

// conns is how many closed-loop clients (each on its own keep-alive
// connection) drive the loopback workloads: clamp(nproc/2, 1, 4). One
// launch in flight already keeps a client goroutine, a connection
// goroutine and the event loop busy, so a client per core would only
// queue launches behind each other and turn the tail latency into a
// measurement of the Go scheduler.
func conns() int {
	n := runtime.NumCPU() / 2
	if n < 1 {
		n = 1
	}
	if n > 4 {
		n = 4
	}
	return n
}

// servingSpec describes one serving workload: how to assemble the system
// and what each closed-loop client sends.
type servingSpec struct {
	name  string
	build func(rec *Recorder) (*stack, error)
	// plans returns each client's launch cycle, drawn from the seed.
	plans func(rng *rand.Rand) [][]prepared
	// 429 handling (launch_overload only).
	maxRetries int
	retrySleep time.Duration
	// scrape turns on the 10 Hz /v1/status + /metrics reader.
	scrape bool
	// procs, when set, is the GOMAXPROCS the workload runs at. A workload
	// whose launches are serial chains of hand-offs (client → connection
	// → event loop and back) gets one P per chain: on a small VM a spare P
	// only parks and wakes a vCPU at every hand-off, which costs what the
	// host's scheduler says it costs (one client on two Ps: 12 % fewer
	// launches, twice the p99, and twice the run-to-run spread).
	procs int
	// refPerS is what the reference server reaches per second when driven
	// the way this workload is (its clients, transport and procs) on a
	// quiet host: the nominal speed the figures are brought to. Measured
	// on the 2-vCPU box the bounds were tuned on.
	refPerS float64
}

// benchOrder returns the eight benchmark names in seeded order. Every
// client cycles through all of them, so the seed moves the order of the
// work but never its amount.
func benchOrder(rng *rand.Rand) []string {
	names := kernels.Names()
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

func servingSpecs() map[string]servingSpec {
	nconn := conns()
	return map[string]servingSpec{
		LaunchTrivial: {
			name: LaunchTrivial, procs: nconn, refPerS: 28_000,
			build: func(rec *Recorder) (*stack, error) {
				return buildSingle(server.Config{Policy: "hpf"}, true, nconn, rec)
			},
			plans: func(rng *rand.Rand) [][]prepared {
				order := benchOrder(rng)
				plans := make([][]prepared, nconn)
				for c := range plans {
					for i := range order {
						plans[c] = append(plans[c], prepare(server.LaunchRequest{
							Client: fmt.Sprintf("c%d", c), Benchmark: order[(i+2*c)%len(order)],
							Class: "trivial", Priority: 1,
						}))
					}
				}
				return plans
			},
		},
		LaunchFFSLarge: {
			// Four tenants, fixed: FFS only rotates with three or more
			// queued, and each client sits blocked most of the time. Every
			// tenant keeps two launches outstanding (two connections), so
			// its next launch is queued before the current one finishes and
			// the virtual timeline does not depend on how fast the host
			// turns a response around.
			name: LaunchFFSLarge, refPerS: 31_000,
			build: func(rec *Recorder) (*stack, error) {
				return buildSingle(server.Config{Policy: "ffs", MaxOverhead: 0.10}, true, 8, rec)
			},
			plans: func(rng *rand.Rand) [][]prepared {
				// FFS shares the device between kernels by name, so no two
				// tenants may ever run the same one: tenant c owns the c-th
				// pair of Table 1 and alternates within it. The pairing is
				// fixed because it decides which kernels get the double
				// weight, and with that the throughput; the seed only picks
				// which kernel of its pair each tenant starts with.
				names := kernels.Names()
				weights := []float64{1, 1, 2, 2}
				var plans [][]prepared
				for c := range weights {
					first := rng.Intn(2)
					var plan []prepared
					for i := 0; i < 2; i++ {
						plan = append(plan, prepare(server.LaunchRequest{
							Client: fmt.Sprintf("tenant%d", c), Benchmark: names[2*c+(first+i)%2],
							Class: "large", Priority: int(weights[c]), Weight: weights[c],
						}))
					}
					plans = append(plans, plan, plan)
				}
				return plans
			},
		},
		LaunchOverload: {
			// More clients than queue slots, and no sockets, so the server
			// (not the generator) is what saturates and 429s are reachable.
			// A best-effort launch is shed for as long as deadline work is
			// outstanding and the queue is past its limit; 50 retries (10 ms)
			// ran out for five launches of one run in thirty, and a workload
			// may not fail, so the limit is 1,000.
			name: LaunchOverload, maxRetries: 1000, retrySleep: 200 * time.Microsecond, refPerS: 250_000,
			build: func(rec *Recorder) (*stack, error) {
				return buildSingle(server.Config{Policy: "edf", QueueDepth: 16}, false, 0, rec)
			},
			plans: func(rng *rand.Rand) [][]prepared {
				order := benchOrder(rng)
				critical := make([]bool, 32)
				for i := 0; i < 8; i++ {
					critical[i] = true
				}
				rng.Shuffle(len(critical), func(i, j int) { critical[i], critical[j] = critical[j], critical[i] })
				plans := make([][]prepared, 32)
				for c := range plans {
					for i := range order {
						req := server.LaunchRequest{
							Client: fmt.Sprintf("be%d", c), Benchmark: order[(i+c)%len(order)],
							Class: "large", Priority: 1,
						}
						if critical[c] {
							req.Client = fmt.Sprintf("lc%d", c)
							req.Class, req.Priority, req.DeadlineMS = "small", 2, 20
						}
						plans[c] = append(plans[c], prepare(req))
					}
				}
				return plans
			},
		},
		Gateway2Node: {
			name: Gateway2Node, scrape: true, procs: nconn, refPerS: 28_000,
			build: func(rec *Recorder) (*stack, error) {
				return buildGateway(server.Config{Policy: "hpf"}, nconn, rec)
			},
			plans: func(rng *rand.Rand) [][]prepared {
				order := benchOrder(rng)
				sessions := make([]string, 64)
				for i := range sessions {
					sessions[i] = fmt.Sprintf("s-%016x", rng.Uint64())
				}
				plans := make([][]prepared, nconn)
				for c := range plans {
					// 64 sessions × 8 benchmarks: every session meets every
					// benchmark once per cycle.
					for i := 0; i < len(sessions)*len(order); i++ {
						plans[c] = append(plans[c], prepare(server.LaunchRequest{
							Client:    sessions[(i+16*c)%len(sessions)],
							Benchmark: order[(i+i/len(sessions))%len(order)],
							Class:     "trivial", Priority: 1,
						}))
					}
				}
				return plans
			},
		},
	}
}

// scraper reads the gateway's /v1/status and /metrics at 10 Hz beside
// the launches, so the aggregation path is exercised under load.
type scraper struct {
	statusUS, metricsUS []float64
	failures            int
	stop                chan struct{}
	done                sync.WaitGroup
}

func startScraper(baseURL string) *scraper {
	sc := &scraper{stop: make(chan struct{})}
	tr := newTransport(1)
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	get := func(path string) (float64, bool) {
		start := time.Now()
		resp, err := client.Get(baseURL + path)
		if err != nil {
			return 0, false
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return float64(time.Since(start)) / 1e3, err == nil && resp.StatusCode == http.StatusOK
	}
	sc.done.Add(1)
	go func() {
		defer sc.done.Done()
		defer tr.CloseIdleConnections()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sc.stop:
				return
			case <-tick.C:
			}
			us, ok := get("/v1/status")
			if ok {
				sc.statusUS = append(sc.statusUS, us)
			} else {
				sc.failures++
			}
			if us, ok = get("/metrics"); ok {
				sc.metricsUS = append(sc.metricsUS, us)
			} else {
				sc.failures++
			}
		}
	}()
	return sc
}

// finish stops the scraper and waits for it.
func (sc *scraper) finish() {
	close(sc.stop)
	sc.done.Wait()
}

// nodeSnapshot sums the nodes' (and the gateway's) metric registries into
// one snapshot.
func nodeSnapshot(st *stack) (obs.Snapshot, error) {
	regs := make([]*obs.Registry, 0, len(st.nodes)+1)
	for _, n := range st.nodes {
		regs = append(regs, n.Registry())
	}
	if st.gateway != nil {
		regs = append(regs, st.gateway.Registry())
	}
	total := obs.Snapshot{}
	for _, reg := range regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		snap, err := obs.ParseText(&buf)
		if err != nil {
			return nil, err
		}
		for k, v := range snap {
			total[k] += v
		}
	}
	return total, nil
}

// p99Samples is how many launches a window needs before its p99 counts:
// ten samples beyond the percentile.
const p99Samples = 1000

// figures are the four end-to-end readings every workload reports.
type figures struct {
	rate, p50, p99, cpu float64
}

func (f figures) into(v Values) {
	v["launches_per_s"], v["launch_p50_us"], v["launch_p99_us"], v["cpu_us_per_launch"] = f.rate, f.p50, f.p99, f.cpu
}

func (f figures) String() string {
	return fmt.Sprintf("launches_per_s %.6g launch_p50_us %.6g launch_p99_us %.6g cpu_us_per_launch %.6g", f.rate, f.p50, f.p99, f.cpu)
}

// atSpeed brings figures read on a host of the given speed to nominal
// speed: a rate is divided by it, a time multiplied.
func (f figures) atSpeed(speed float64) figures {
	return figures{rate: f.rate / speed, p50: f.p50 * speed, p99: f.p99 * speed, cpu: f.cpu * speed}
}

// windows collects the figures of a run's windows, column by column. A
// zero p50, p99 or cpu means the window had none.
type windows struct {
	rate, p50, p99, cpu []float64
}

func (w *windows) add(f figures) {
	w.rate = append(w.rate, f.rate)
	for _, c := range []struct {
		col *[]float64
		x   float64
	}{{&w.p50, f.p50}, {&w.p99, f.p99}, {&w.cpu, f.cpu}} {
		if c.x > 0 {
			*c.col = append(*c.col, c.x)
		}
	}
}

// reduce reports the median window's rate, p50 and CPU, but the
// lower-decile window's p99: when the host takes a vCPU away for a
// millisecond the launches in flight land in the tail, so a window's p99
// is the program's plus however many stalls the window caught, and the
// quieter windows say more about the program.
func (w *windows) reduce() figures {
	p99s := append([]float64(nil), w.p99...)
	sort.Float64s(p99s)
	return figures{rate: Median(w.rate), p50: Median(w.p50), p99: Quantile(p99s, 0.10), cpu: Median(w.cpu)}
}

// windowStats reduces the timed pass to the end-to-end figures. Each
// window yields a rate, the median client's median latency, the p99 over
// all its launches and the CPU per launch; the reference slices on either
// side of it give the host's speed, which brings the four to nominal
// speed (see reference.go). A window too slow to support a p99
// contributes none; supported counts those that did. raw is the same
// without the speed, and speed the median window's.
func windowStats(cfgPhases []phase, phases []phaseStats, nominal float64) (at, raw figures, speed float64, samples, supported int) {
	var track speedTrack
	var elapsed time.Duration
	for i, p := range cfgPhases {
		if p.ref {
			track = append(track, speedSample{at: elapsed + p.dur/2,
				speed: float64(phases[i].completed) / p.dur.Seconds() / nominal})
		}
		elapsed += p.dur
	}
	var atNominal, asMeasured windows
	var speeds []float64
	elapsed = 0
	for i, p := range cfgPhases {
		mid := elapsed + p.dur/2
		elapsed += p.dur
		if !p.record {
			continue
		}
		ph := phases[i]
		us := durationsToMicros(ph.latencies)
		samples += len(us)
		f := figures{rate: float64(ph.completed) / p.dur.Seconds()}
		if ph.completed > 0 {
			f.p50 = Median(ph.clientP50)
			f.cpu = float64(ph.cpu) / 1e3 / float64(ph.completed)
		}
		if len(us) >= p99Samples {
			f.p99 = Quantile(us, 0.99)
		}
		sp := track.at(mid)
		speeds = append(speeds, sp)
		asMeasured.add(f)
		atNominal.add(f.atSpeed(sp))
	}
	return atNominal.reduce(), asMeasured.reduce(), Median(speeds), samples, len(atNominal.p99)
}

// runServing runs one serving workload: assemble the system setupReps
// times, drive it with closed-loop clients, check the ledger, and reduce
// the run to metrics.
func runServing(spec servingSpec, seed int64, total time.Duration, traced bool) (*Outcome, *Recorder, error) {
	if spec.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(spec.procs))
	}
	var rec *Recorder
	phases := timedPhases(total)
	if traced {
		rec = NewRecorder(1 << 16)
		phases = tracedPhases(total)
	}
	var st *stack
	setupS, err := timeSetups(func() (err error) {
		st, err = spec.build(rec)
		return err
	}, func() { st.close() })
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	defer st.close()
	plans := spec.plans(rand.New(rand.NewSource(seed)))
	var ref *stack
	if !traced {
		if ref, err = buildReference(st.baseURL != "", len(plans)); err != nil {
			return nil, nil, fmt.Errorf("%s: reference: %w", spec.name, err)
		}
		defer ref.close()
	}

	// Counter snapshots and process readings bracket the traced window.
	tracedIdx := -1
	for i, p := range phases {
		if p.traced {
			tracedIdx = i
		}
	}
	var snaps [2]obs.Snapshot
	var procs [2]procSample
	var snapErr error
	cfg := genConfig{phases: phases, maxRetries: spec.maxRetries, retrySleep: spec.retrySleep, rec: rec}
	if tracedIdx >= 0 {
		cfg.onBoundary = func(i int) {
			if k := i - tracedIdx; k == 0 || k == 1 {
				procs[k] = readProc()
				var err error
				if snaps[k], err = nodeSnapshot(st); err != nil && snapErr == nil {
					snapErr = err
				}
			}
		}
	}
	var sc *scraper
	if spec.scrape {
		sc = startScraper(st.baseURL)
	}
	res := runLoad(st, ref, plans, cfg)
	if sc != nil {
		sc.finish()
	}
	if snapErr != nil {
		return nil, nil, fmt.Errorf("%s: metrics snapshot: %w", spec.name, snapErr)
	}

	out := &Outcome{Workload: spec.name, Seed: seed, Traced: traced, Values: Values{},
		Attempted: res.attempted, Failed: res.failed}
	for _, e := range res.firstErrs {
		out.Notes = append(out.Notes, "error "+e)
	}

	// Correctness: the ledgers, read through each node's own handler.
	var ledgers []nodeLedger
	var attained, missed int64
	digest := sha256.New()
	for i, n := range st.nodes {
		l, err := readLedger(st.nodeIDs[i], n.Counters(), n.Handler())
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		ledgers = append(ledgers, l)
		attained += l.counters["slo_attained"]
		missed += l.counters["slo_missed"]
		fmt.Fprintf(digest, "%s completed=%d virtual_now=%d steps=%d\n", l.node, l.counters["completed"], n.VirtualNow(), n.Steps())
	}
	out.Digest = fmt.Sprintf("%x", digest.Sum(nil))
	out.Checks = checkLedger(ledgers, res)
	if st.gateway != nil {
		snap, err := nodeSnapshot(st)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		accepted := int64(snap["flep_gateway_accepted_total"])
		out.Checks = append(out.Checks, check("gateway_accepted", accepted == res.ok,
			"gateway counted %d accepted launches, clients saw %d 200s", accepted, res.ok))
	}
	if sc != nil {
		out.Checks = append(out.Checks, check("scrapes_ok", sc.failures == 0 && len(sc.statusUS) > 0,
			"%d of the 10 Hz status/metrics scrapes failed (%d succeeded)", sc.failures, len(sc.statusUS)))
	}

	v := out.Values
	v["setup_s"] = setupS
	v["failed_share"] = float64(res.failed) / float64(max(res.attempted, 1))
	if n := attained + missed + res.failedLC; n > 0 {
		v["slo_attain_rate"] = float64(attained) / float64(n)
	}
	if !traced {
		at, raw, speed, samples, supported := windowStats(phases, res.phases, spec.refPerS)
		at.into(v)
		out.Notes = append(out.Notes,
			fmt.Sprintf("latency_samples %d over %d windows, %d of them with the %d a p99 needs (at nominal host speed: the median window's rate, p50 and CPU, the lower-decile window's p99)",
				samples, timedWindows, supported, p99Samples),
			fmt.Sprintf("as_measured %v host_speed %.4f (reference reached, over %.0f/s nominal)", raw, speed, spec.refPerS))
		// A stalled window or two is the host's doing; a workload that
		// rarely fills a window cannot report a p99 at all.
		out.Checks = append(out.Checks,
			check("p99_supported", 2*supported >= timedWindows,
				"only %d of %d windows completed the %d launches a p99 needs", supported, timedWindows, p99Samples),
			check("reference_ok", res.refFailed == 0 && speed > 0,
				"%d reference round trips failed; host speed reads %.4f", res.refFailed, speed))
		return out, nil, nil
	}

	before, tr := res.phases[tracedIdx-1], res.phases[tracedIdx]
	refRate := float64(before.completed) / before.dur.Seconds()
	trRate := float64(tr.completed) / tr.dur.Seconds()
	if refRate > 0 {
		v["trace.overhead_pct"] = (refRate - trRate) / refRate * 100
	}
	addSpanMetrics(v, rec, out)
	addCounterMetrics(v, snaps[0], snaps[1], tr)
	for k, x := range procMetrics(procs[0], procs[1], tr.completed) {
		v[k] = x
	}
	if len(res.okPerNode) > 0 && res.ok > 0 {
		var most int64
		for _, n := range res.okPerNode {
			most = max(most, n)
		}
		v["cluster.node_share_max"] = float64(most) / float64(res.ok)
	}
	if st.gateway == nil {
		v["cluster.node_share_max"] = 0
	}
	if sc != nil {
		v["cluster.status_us"] = Median(sc.statusUS)
		v["cluster.metrics_us"] = Median(sc.metricsUS)
	}
	return out, rec, nil
}

// addSpanMetrics reduces the recorder's spans to median per-launch
// durations and self times, and checks that the self times of a launch
// add up to its client span.
func addSpanMetrics(v Values, rec *Recorder, out *Outcome) {
	spans := anchorAdmission(rec.Spans())
	lts := SelfTimes(spans)
	self := func(names ...string) func(LaunchTimes) (int64, bool) {
		return func(lt LaunchTimes) (int64, bool) {
			var sum int64
			found := false
			for _, n := range names {
				if x, ok := lt.Self[n]; ok {
					sum += x
					found = true
				}
			}
			return sum, found
		}
	}
	dur := func(name string) func(LaunchTimes) (int64, bool) {
		return func(lt LaunchTimes) (int64, bool) { x, ok := lt.Dur[name]; return x, ok }
	}
	v["client.self_us"] = medianOf(lts, self(SpanClient))
	// Both HTTP hops are net/http plus loopback: one layer.
	v["transport.self_us"] = medianOf(lts, self(SpanTransport, SpanBackend))
	v["cluster.self_us"] = medianOf(lts, self(SpanCluster))
	v["cluster.backend_rtt_us"] = medianOf(lts, dur(SpanBackend))
	v["server.handler_us"] = medianOf(lts, dur(SpanServer))
	v["server.admission_wait_us"] = medianOf(lts, dur(SpanAdmission))
	v["server.self_us"] = medianOf(lts, self(SpanServer))

	// Self times partition the client span by construction; a gap means a
	// span went missing or a parent link is wrong.
	var clientSum, selfSum int64
	for _, lt := range lts {
		c, ok := lt.Dur[SpanClient]
		if !ok {
			continue
		}
		clientSum += c
		names := make([]string, 0, len(lt.Self))
		for n := range lt.Self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			selfSum += lt.Self[n]
		}
	}
	gap := 0.0
	if clientSum > 0 {
		gap = float64(selfSum-clientSum) / float64(clientSum)
	}
	out.Notes = append(out.Notes, fmt.Sprintf("spans %d over %d sampled launches; self times sum to %.4f of the client spans", len(spans), len(lts), 1+gap))
	out.Checks = append(out.Checks, check("span_self_times_sum", len(lts) > 0 && gap > -0.10 && gap < 0.10,
		"self times sum to %.3f of the client span over %d launches", 1+gap, len(lts)))
}

// anchorAdmission places each launch's admission-wait span (known only as
// a duration, from queue_wait_real_ns) at the start of that launch's last
// server span, so it nests like a recorded span.
func anchorAdmission(spans []Span) []Span {
	lastServer := map[uint64]Span{}
	for _, s := range spans {
		if s.Name == SpanServer && s.Start >= lastServer[s.Launch].Start {
			lastServer[s.Launch] = s
		}
	}
	out := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.Name == SpanAdmission {
			srv, ok := lastServer[s.Launch]
			if !ok {
				continue
			}
			wait := s.End - s.Start
			s.Start, s.End = srv.Start, srv.Start+wait
		}
		out = append(out, s)
	}
	return out
}

// addCounterMetrics turns the /metrics deltas across the traced window
// into per-launch counts.
func addCounterMetrics(v Values, before, after obs.Snapshot, tr phaseStats) {
	delta := func(key string) float64 { return obs.Delta(before, after, key) }
	family := func(name string, pairs ...string) float64 {
		return after.SumMatching(name, pairs...) - before.SumMatching(name, pairs...)
	}
	completed := family("flep_server_launches_total", "outcome", "completed")
	steps := delta("flep_server_loop_steps")
	if completed > 0 {
		v["server.loop_steps_per_launch"] = steps / completed
		v["flepruntime.preemptions_per_launch"] = family("flep_runtime_preemptions_total") / completed
	}
	v["server.loop_steps_per_s"] = steps / tr.dur.Seconds()
	if n := delta("flep_server_admission_batch_size_count"); n > 0 {
		v["server.admission_batch_mean"] = delta("flep_server_admission_batch_size_sum") / n
	}
	v["server.rejected_queue_full"] = family("flep_server_launches_total", "outcome", "rejected_queue_full")
	v["server.shed_best_effort"] = family("flep_server_launches_total", "outcome", "rejected_best_effort_shed")
	if tr.completed > 0 {
		v["server.retries_per_launch"] = float64(tr.retries) / float64(tr.completed)
	}
	if n := delta("flep_runtime_drain_latency_seconds_count"); n > 0 {
		v["flepruntime.drain_latency_mean_us"] = delta("flep_runtime_drain_latency_seconds_sum") / n * 1e6
	}
	v["cluster.retries"] = delta("flep_gateway_retries_total")
}
