// Package server implements flepd's serving layer: a long-running daemon
// that owns one core.System (offline artifacts built at startup) and
// schedules kernel-launch requests from many concurrent clients through
// the FLEP runtime engine on the simulated device.
//
// The paper's runtime engine (§5) is an always-on interceptor: host
// programs hand it kernel invocations and block until the scheduler
// dispatches them (Figure 5's S2→S3 transition). The daemon realizes that
// shape over HTTP: POST /v1/launch is the interception point, the
// response is the S3→S1 return, and a single event-loop goroutine plays
// the role of the scheduling thread — it owns the discrete-event engine,
// the device model, and the policy, so no lock ever guards simulator
// state. Arrivals are stamped onto the virtual clock in arrival order,
// which makes concurrent clients reproduce exactly the preemption
// behaviour of the paper's co-run scenarios.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/model"
	"flep/internal/obs"
	"flep/internal/replay"
	"flep/internal/trace"
)

// Config parameterizes a daemon instance.
type Config struct {
	// Policy names the scheduling policy (see flepruntime.NewPolicy;
	// default "hpf"): "edf" is earliest-deadline-first over launches
	// carrying deadline_ms with best-effort behind, "fifo" the
	// non-preemptive baseline.
	Policy string
	// Spatial enables spatial preemption (HPF only).
	Spatial bool
	// SpatialSMs overrides how many SMs a spatial preemption yields.
	SpatialSMs int
	// MaxOverhead is FFS's overhead budget (default 0.10).
	MaxOverhead float64
	// Weights is the FFS priority-level → share-weight map; a launch's
	// weight field adds a per-kernel share on top of it.
	Weights map[int]float64
	// Benchmarks names the kernels to build offline artifacts for
	// (nil/empty = the full Table 1 suite).
	Benchmarks []string
	// QueueDepth bounds the admission queue; a full queue rejects
	// launches with 429 + Retry-After (default 256).
	QueueDepth int
	// DepPending bounds how many graph stages may sit in the
	// pending-dependency table awaiting prerequisites; at the cap new
	// stages that would park are rejected with 429 (default 256).
	DepPending int
	// DepGraphs bounds how many graph instances the table tracks at
	// once. At the cap a new graph evicts the oldest stalled graph (no
	// parked stages, nothing in flight) or is rejected with 429
	// (default 256).
	DepGraphs int
	// RequestTimeout caps how long a launch handler waits for its result
	// before answering 504; the invocation itself is never abandoned
	// (default 30s).
	RequestTimeout time.Duration
	// Trace keeps a bounded runtime+device event log served at /v1/trace.
	Trace bool
	// Pace, when positive, sleeps this long of real time per simulated
	// event, so virtual time advances at a human-observable rate and
	// clients can genuinely race the simulation (default 0: run the
	// simulator as fast as the host allows).
	Pace time.Duration
	// Recorder, when set, captures every admitted launch into a replay
	// trace (see internal/replay). A fleet's shards share one recorder; it
	// is flushed when the event loop drains, so a SIGTERM'd daemon leaves
	// a readable trace.
	Recorder *replay.Recorder
	// Logf, when set, receives startup progress lines.
	Logf func(format string, args ...any)
}

// traceLimit bounds the retained trace entries of a Config.Trace log.
const traceLimit = 65536

func (c *Config) applyDefaults() {
	if c.Policy == "" {
		c.Policy = "hpf"
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DepPending <= 0 {
		c.DepPending = 256
	}
	if c.DepGraphs <= 0 {
		c.DepGraphs = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Sentinel errors surfaced by admission.
var (
	// ErrQueueFull reports a full admission queue (HTTP 429).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining reports a shutting-down daemon (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting launches")
	// ErrBestEffortShed reports a best-effort launch shed by SLO-aware
	// admission: deadline-bearing work is outstanding and the queue has
	// crowded past the cost-aware best-effort share (HTTP 429).
	ErrBestEffortShed = errors.New("server: best-effort launch shed to protect outstanding deadlines")
	// ErrStopped reports a daemon whose event loop has exited.
	ErrStopped = errors.New("server: stopped")
)

// counters aggregates the daemon's request accounting. The exactly-once
// invariant is Enqueued == Completed + SubmitErrors once drained: every
// accepted launch reaches the runtime exactly once and produces exactly
// one terminal event.
type counters struct {
	Enqueued         int64 `json:"enqueued"`
	Completed        int64 `json:"completed"`
	SubmitErrors     int64 `json:"submit_errors"`
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedDraining int64 `json:"rejected_draining"`
	RejectedInvalid  int64 `json:"rejected_invalid"`
	RejectedShed     int64 `json:"rejected_best_effort_shed"`
	TimedOut         int64 `json:"timed_out"`
	Canceled         int64 `json:"canceled"`
	// SLOAttained/SLOMissed partition deadline-bearing completions (a
	// subset of Completed) by whether they met their virtual deadline.
	SLOAttained int64 `json:"slo_attained"`
	SLOMissed   int64 `json:"slo_missed"`
	// DepCanceled counts graph stages canceled before admission (a
	// prerequisite failed, or the daemon drained while they were
	// parked); they never entered the queue, so they sit outside the
	// Enqueued ledger by design. RejectedDepFull counts stages bounced
	// off a full pending-dependency table.
	DepCanceled     int64 `json:"dep_canceled"`
	RejectedDepFull int64 `json:"rejected_dep_table_full"`
}

// InFlight is the accepted work that has not reached a terminal event yet:
// positive while launches run, zero at rest, and never negative unless a
// launch was delivered twice.
func (c counters) InFlight() int64 { return c.Enqueued - c.Completed - c.SubmitErrors }

// outcome names one launch-accounting family: the ledger's terminal
// families plus the timed_out/canceled annotations on a waiter that gave
// up. The zero value is not an outcome, so a path that forgets to name
// one panics in countLocked instead of answering uncounted.
type outcome int

const (
	outUnset outcome = iota
	outEnqueued
	outCompleted
	outSubmitError
	outRejectedFull
	outRejectedShed
	outRejectedDraining
	outRejectedInvalid
	outRejectedDepFull
	outDepCanceled
	outTimedOut
	outCanceled
	numOutcomes
)

// outcomes declares the launch ledger, one row per family: its key in the
// /v1/status counters and Counters(), its outcome label on
// flep_server_launches_total, the HTTP status that answers a launch refused
// with it (zero, which net/http rejects, where nothing is refused), and
// whether it may open a session. Only accepted work does — a refusal is
// recorded on an existing session only, because refused requests carry
// attacker-controlled names and state per garbage name is unbounded memory.
// Whatever handles every family loops over this table; the two wire
// structs (counters, SessionSnapshot) bind their fields to it in slots.
var outcomes = [numOutcomes]struct {
	key          string
	label        string
	refusal      int
	opensSession bool
}{
	outEnqueued:         {key: "enqueued", label: "enqueued", opensSession: true},
	outCompleted:        {key: "completed", label: "completed"},
	outSubmitError:      {key: "submit_errors", label: "submit_error"},
	outRejectedFull:     {key: "rejected_queue_full", label: "rejected_queue_full", refusal: http.StatusTooManyRequests},
	outRejectedShed:     {key: "rejected_best_effort_shed", label: "rejected_best_effort_shed", refusal: http.StatusTooManyRequests},
	outRejectedDraining: {key: "rejected_draining", label: "rejected_draining", refusal: http.StatusServiceUnavailable},
	outRejectedInvalid:  {key: "rejected_invalid", label: "rejected_invalid", refusal: http.StatusBadRequest},
	outRejectedDepFull:  {key: "rejected_dep_table_full", label: "rejected_dep_table_full", refusal: http.StatusTooManyRequests},
	outDepCanceled:      {key: "dep_canceled", label: "dep_canceled", refusal: http.StatusConflict},
	outTimedOut:         {key: "timed_out", label: "timed_out", opensSession: true},
	outCanceled:         {key: "canceled", label: "canceled", opensSession: true},
}

// ledger is one count per outcome, indexed by it.
type ledger [numOutcomes]int64

// inFlight is the accepted work that has not reached a terminal event yet.
func (l *ledger) inFlight() int64 { return l[outEnqueued] - l[outCompleted] - l[outSubmitError] }

// slots are the wire fields, indexed by the outcome each carries.
func (c *counters) slots() [numOutcomes]*int64 {
	return [numOutcomes]*int64{
		outEnqueued:         &c.Enqueued,
		outCompleted:        &c.Completed,
		outSubmitError:      &c.SubmitErrors,
		outRejectedFull:     &c.RejectedFull,
		outRejectedShed:     &c.RejectedShed,
		outRejectedDraining: &c.RejectedDraining,
		outRejectedInvalid:  &c.RejectedInvalid,
		outRejectedDepFull:  &c.RejectedDepFull,
		outDepCanceled:      &c.DepCanceled,
		outTimedOut:         &c.TimedOut,
		outCanceled:         &c.Canceled,
	}
}

// count applies one launch outcome; see countLocked.
func (s *Server) count(o outcome, client string) {
	//flepvet:allow sharedlock -- bounded counter bump; handlers only copy under s.mu, never block
	s.mu.Lock()
	s.countLocked(o, client)
	s.mu.Unlock()
}

// countEnqueued counts q's entry into the ledger; see countEnqueuedLocked.
func (s *Server) countEnqueued(q *launchReq) {
	//flepvet:allow sharedlock -- bounded counter bump; handlers only copy under s.mu, never block
	s.mu.Lock()
	s.countEnqueuedLocked(q)
	s.mu.Unlock()
}

// countEnqueuedLocked counts q as enqueued exactly once, from whichever
// side of the hand-off gets here first: the handler right after
// tryEnqueue, or the loop when a trivial kernel reaches its terminal
// outcome before the handler runs again. Every terminal count on the
// loop calls it first, so Enqueued is counted — and the session exists —
// before Completed or SubmitErrors can be. Callers hold s.mu.
func (s *Server) countEnqueuedLocked(q *launchReq) {
	if !q.enqueueCounted {
		q.enqueueCounted = true
		s.countLocked(outEnqueued, q.client)
	}
}

// countLocked is the one place a launch outcome is counted: it moves the
// same family in the /metrics counter, the /v1/status counters and the
// client's /v1/sessions row, so the three views cannot drift. Callers
// hold s.mu. Returns the session, nil where the outcome may not open one
// (see outcomes) and the client has none.
func (s *Server) countLocked(o outcome, client string) *Session {
	if o <= outUnset || o >= numOutcomes {
		panic(fmt.Sprintf("server: counting invalid launch outcome %d", o))
	}
	sess := s.sessions[client]
	if sess == nil && outcomes[o].opensSession {
		sess = s.session(client)
	}
	s.met.launches[o].Inc()
	s.c[o]++
	if sess != nil {
		sess.n[o]++
	}
	return sess
}

// Server is one flepd instance. Create it with New or NewWithSystem; it
// serves HTTP through Handler and stops through Shutdown.
type Server struct {
	cfg            Config
	device, shards int // this shard's index in its fleet, and the fleet's width
	sys            *core.System
	// stack is the engine, device and runtime the loop goroutine owns;
	// only stack.DevMetrics (atomic instruments) is read cross-goroutine.
	// The trace log the stack writes is the loop's too: read it on the
	// loop (onLoop).
	stack   *core.Stack
	tlog    *trace.Log // nil unless cfg.Trace
	reg     *obs.Registry
	met     *serverMetrics
	benches map[string]*kernels.Benchmark
	info    []BenchmarkInfo // immutable after New

	submitCh chan *launchReq
	ctrlCh   chan ctrlMsg
	stopCh   chan struct{}
	loopDone chan struct{}

	// acceptMu serializes admission against the start of draining so no
	// enqueue can slip in after the loop decided the queue is final.
	acceptMu sync.RWMutex
	draining bool

	vnow   atomic.Int64 // last observed virtual clock (ns)
	paused atomic.Bool
	steps  atomic.Int64 // simulation events stepped by the loop

	// SLO-tier admission state. beLimit is the queue occupancy at which
	// best-effort launches are shed while deadline-bearing work is
	// outstanding; it is derived once at startup from the loaded kernels'
	// preemption-cost ratio (see NewWithSystem) and immutable afterwards.
	// lcOutstanding counts deadline-bearing launches between enqueue and
	// their terminal event; svcEWMANS/lastCompleteNS feed the Retry-After
	// estimate (written only by the loop goroutine, read by handlers).
	beLimit        int
	lcOutstanding  atomic.Int64
	svcEWMANS      atomic.Int64
	lastCompleteNS atomic.Int64

	// queued counts launches reserved or resident in submitCh that the
	// loop has not yet popped. tryEnqueue reserves a slot (CAS under the
	// best-effort share) BEFORE the channel send and admit releases it,
	// so the shed decision and the enqueue are one atomic step — N
	// concurrent best-effort handlers cannot all pass a stale length
	// check and overshoot beLimit.
	queued atomic.Int64

	// signals counts control messages and the stop request from just before
	// they are sent until the loop receives them: with queued, how the
	// stepping loop knows whether any of its channels can hold something.
	signals atomic.Int32

	// batch is the loop-owned scratch slice absorb passes drain submitCh
	// into, so a burst of arrivals is admitted in one pass with a single
	// wall-clock read instead of one select iteration (and one time.Now)
	// per launch. Only the loop goroutine touches it.
	batch []*launchReq

	// Pending-dependency table and per-model aggregates (see deps.go),
	// owned by the loop goroutine. depReady holds the stages the table
	// released until admitReleased admits them.
	deps     *model.Table[*launchReq]
	models   map[string]*metrics.GraphTally
	depReady []*launchReq

	mu        sync.Mutex
	startReal time.Time
	c         ledger
	// runs tallies every completion, so /v1/status can report SLO
	// attainment and the mean margin without a second pass. Guarded by mu
	// like the ledger.
	runs     metrics.Tally
	sessions map[string]*Session
}

// New builds the offline artifacts for cfg.Benchmarks on a fresh system
// and starts the daemon's event loop.
func New(cfg Config) (*Server, error) {
	sys, err := offlineSystem(&cfg)
	if err != nil {
		return nil, err
	}
	return NewWithSystem(sys, cfg)
}

// offlineSystem applies cfg's defaults and runs the offline phase for
// cfg.Benchmarks on a fresh system, logging each kernel's artifacts once
// the phase is done (its benchmarks build concurrently, so only the whole
// phase has a wall time; flepd logs it).
func offlineSystem(cfg *Config) (*core.System, error) {
	cfg.applyDefaults()
	benchs, err := resolveBenchmarks(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(gpu.DefaultParams())
	if err := sys.Offline(benchs); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for _, b := range benchs {
		a := sys.Artifacts(b.Name)
		cfg.Logf("offline %-5s L=%-4d overhead=%.2f%% preempt=%v",
			b.Name, a.L, a.TunedOverhead*100, a.PreemptOverhead.Round(time.Microsecond))
	}
	return sys, nil
}

// NewWithSystem starts a daemon over an existing system (whose Offline
// phase must already cover cfg.Benchmarks). The system must not be used
// concurrently by anyone else afterwards: the event loop owns it.
func NewWithSystem(sys *core.System, cfg Config) (*Server, error) {
	return newShard(sys, cfg, 0, 1)
}

// newShard starts shard device of a fleet of shards over sys. The
// device index is stamped onto launch results so clients can attribute
// work to a device; shards prices Retry-After at the whole fleet's drain
// rate, not one shard's.
func newShard(sys *core.System, cfg Config, device, shards int) (*Server, error) {
	cfg.applyDefaults()
	benchs, err := resolveBenchmarks(cfg.Benchmarks)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		device:   device,
		shards:   shards,
		sys:      sys,
		benches:  map[string]*kernels.Benchmark{},
		submitCh: make(chan *launchReq, cfg.QueueDepth),
		ctrlCh:   make(chan ctrlMsg),
		stopCh:   make(chan struct{}),
		loopDone: make(chan struct{}),
		sessions: map[string]*Session{},

		models: map[string]*metrics.GraphTally{},
	}
	s.deps = model.NewTable(cfg.DepPending, cfg.DepGraphs, s.depReport)
	for _, b := range benchs {
		if sys.Artifacts(b.Name) == nil {
			return nil, fmt.Errorf("server: system lacks offline artifacts for %s", b.Name)
		}
		s.benches[b.Name] = b
	}

	s.info = buildBenchmarkInfo(sys, benchs)

	s.beLimit = bestEffortLimit(s.info, cfg.QueueDepth)

	s.reg = obs.NewRegistry()
	s.met = newServerMetrics(s.reg, s)
	if cfg.Trace {
		s.tlog = &trace.Log{Limit: traceLimit}
	}
	s.stack, err = sys.NewStack(cfg.options(), s.tlog, s.reg, nil)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Recorder != nil && device == 0 {
		// One shard (by convention the first) owns the shared recorder's
		// instrumentation, so fleet expositions carry it exactly once.
		cfg.Recorder.Bind(s.reg)
	}
	s.startReal = time.Now()
	go s.loop()
	return s, nil
}

// bestEffortLimit derives the queue occupancy at which best-effort
// launches are shed while deadlines are outstanding. The share is
// cost-of-preemption-aware: rescuing a deadline behind best-effort work
// means draining that work, so the more a drain costs relative to the
// work it interrupts (the fleet's mean preempt-overhead ratio), the
// less queue the best-effort tier may fill before shedding starts. The
// share runs from 90% (cheap preemption: admission can afford to let
// best-effort work in and evict it on demand) down to 50% (expensive
// preemption: keep headroom so deadlines rarely need a drain at all).
func bestEffortLimit(info []BenchmarkInfo, queueDepth int) int {
	var ratioSum float64
	var n int
	for _, bi := range info {
		ci, ok := bi.Classes[kernels.Small.String()]
		if !ok || ci.PredictedNS <= 0 {
			continue
		}
		ratioSum += float64(bi.PreemptOverheadNS) / float64(ci.PredictedNS)
		n++
	}
	share := 0.9
	if n > 0 {
		share -= 2 * (ratioSum / float64(n))
	}
	if share < 0.5 {
		share = 0.5
	}
	limit := int(share * float64(queueDepth))
	if limit < 1 {
		limit = 1
	}
	return limit
}

// serviceEstimate returns the EWMA of real inter-completion time: the
// observed drain rate of the pipeline, which prices one queue slot in
// wall-clock seconds for Retry-After.
func (s *Server) serviceEstimate() time.Duration {
	return time.Duration(s.svcEWMANS.Load())
}

// retryAfter estimates, in whole seconds, when a rejected client should
// try again: the current queue depth priced at the observed
// per-completion drain rate across the fleet's active shards.
func (s *Server) retryAfter() int {
	return retryAfterFor(len(s.submitCh), s.serviceEstimate(), s.shards)
}

// retryAfterFor converts a queue depth and a per-launch service-time
// estimate into a Retry-After header value, clamped to [1, 60] seconds
// (1 when no completions have been observed yet). shards is how many
// device shards drain concurrently: the per-shard completion EWMA prices
// one shard's throughput, so a fleet works the backlog off shards times
// faster and the header must shrink accordingly.
func retryAfterFor(depth int, perLaunch time.Duration, shards int) int {
	if depth < 0 {
		depth = 0
	}
	if shards < 1 {
		shards = 1
	}
	wait := time.Duration(depth+1) * perLaunch / time.Duration(shards)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// options is the scheduler every shard of this configuration runs, and the
// one a recording of it names in its trace header.
func (c Config) options() core.Options {
	return core.Options{
		Policy: c.Policy, Spatial: c.Spatial, SpatialSMs: c.SpatialSMs,
		MaxOverhead: c.MaxOverhead, Weights: c.Weights,
	}
}

// RecorderHeader builds the replay trace header describing this
// configuration, so a recording daemon stamps its trace with everything
// a replay needs to default to "as recorded".
func (c Config) RecorderHeader(devices int) replay.Header {
	c.applyDefaults()
	h := replay.Header{Source: replay.SourceFlepd, Options: c.options(), Devices: devices}
	if len(c.Benchmarks) == 0 {
		for _, b := range kernels.All() {
			h.Benchmarks = append(h.Benchmarks, b.Name)
		}
	} else {
		h.Benchmarks = append(h.Benchmarks, c.Benchmarks...)
	}
	sort.Strings(h.Benchmarks)
	return h
}

func resolveBenchmarks(names []string) ([]*kernels.Benchmark, error) {
	if len(names) == 0 {
		return kernels.All(), nil
	}
	out := make([]*kernels.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := kernels.ByName(n)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		out = append(out, b)
	}
	return out, nil
}

// Shutdown drains the daemon: new launches are rejected with 503, queued
// and in-flight invocations run to completion, then the event loop exits.
// It returns early with ctx's error if the drain outlives the context
// (the loop keeps draining in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.acceptMu.Lock()
	already := s.draining
	s.draining = true
	s.acceptMu.Unlock()
	if !already {
		s.signals.Add(1)
		close(s.stopCh)
	}
	select {
	case <-s.loopDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.acceptMu.RLock()
	defer s.acceptMu.RUnlock()
	return s.draining
}

// VirtualNow returns the last observed virtual-clock reading.
func (s *Server) VirtualNow() time.Duration { return time.Duration(s.vnow.Load()) }

// Steps returns how many simulation events the loop has stepped. Under a
// positive Pace, each step costs at least one pace interval of wall time,
// even across pause/resume cycles.
func (s *Server) Steps() int64 { return s.steps.Load() }

// Load reports the shard's placement-scoring input: the accepted launches
// not yet terminal, queued or admitted (the ledger counts a launch as
// enqueued before the loop receives it). Safe from any goroutine.
func (s *Server) Load() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.inFlight()
}

// MemoryAvailable estimates the shard's unreserved device memory from the
// atomically-updated device gauge (the loop goroutine owns the device
// itself). Zero-capacity devices report MaxInt64 (admission never blocks
// on memory).
func (s *Server) MemoryAvailable() int64 {
	if s.sys.Par.MemoryBytes <= 0 {
		return int64(^uint64(0) >> 1)
	}
	free := s.sys.Par.MemoryBytes - int64(s.stack.DevMetrics.MemoryReserved.Value())
	if free < 0 {
		return 0
	}
	return free
}

// Pause parks the event loop: arrivals accumulate in the admission queue
// (exercising backpressure) and virtual time stands still. It returns
// once the loop has acknowledged, so the pause is fully in effect.
func (s *Server) Pause() error { return s.ctrl(ctrlPause) }

// Resume unparks a paused event loop.
func (s *Server) Resume() error { return s.ctrl(ctrlResume) }

// Counters returns a snapshot of the request accounting, keyed as the
// /v1/status counters are.
func (s *Server) Counters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := map[string]int64{"slo_attained": s.runs.Attained, "slo_missed": s.runs.Missed}
	for o := outEnqueued; o < numOutcomes; o++ {
		m[outcomes[o].key] = s.c[o]
	}
	return m
}

// countersLocked is the ledger as /v1/status carries it. Callers hold s.mu.
func (s *Server) countersLocked() counters {
	c := counters{SLOAttained: s.runs.Attained, SLOMissed: s.runs.Missed}
	fields := c.slots()
	for o := outEnqueued; o < numOutcomes; o++ {
		*fields[o] = s.c[o]
	}
	return c
}

// BenchmarkInfo describes one loaded benchmark for /v1/benchmarks.
type BenchmarkInfo struct {
	Name              string               `json:"name"`
	Kernel            string               `json:"kernel"`
	L                 int                  `json:"amortizing_factor"`
	TuneOK            bool                 `json:"tune_ok"`
	PreemptOverheadNS int64                `json:"preempt_overhead_ns"`
	Classes           map[string]ClassInfo `json:"classes"`
}

// ClassInfo describes one input class of a benchmark.
type ClassInfo struct {
	Tasks       int   `json:"tasks"`
	Bytes       int64 `json:"bytes"`
	SoloNS      int64 `json:"solo_ns"`
	PredictedNS int64 `json:"predicted_ns"`
}

func buildBenchmarkInfo(sys *core.System, benchs []*kernels.Benchmark) []BenchmarkInfo {
	out := make([]BenchmarkInfo, 0, len(benchs))
	for _, b := range benchs {
		a := sys.Artifacts(b.Name)
		bi := BenchmarkInfo{
			Name: b.Name, Kernel: b.KernelName,
			L: a.L, TuneOK: a.TuneOK,
			PreemptOverheadNS: int64(a.PreemptOverhead),
			Classes:           map[string]ClassInfo{},
		}
		for _, c := range kernels.Classes() {
			in := b.Input(c)
			// The shape a launch of this class resolves to, so the catalog
			// quotes the Te and baseline the loop uses; nothing simulates.
			sh, _ := sys.Resolve(b, c, 0) // newShard checked the artifacts
			bi.Classes[c.String()] = ClassInfo{
				Tasks: in.Tasks, Bytes: in.Bytes,
				SoloNS:      int64(sh.Alone()),
				PredictedNS: int64(sh.Te()),
			}
		}
		out = append(out, bi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
