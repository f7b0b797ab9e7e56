package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/replay"
	"flep/internal/trace"
)

// LaunchRequest is the JSON body of POST /v1/launch: the serving-layer
// equivalent of the transformed host program's flep_intercept call.
type LaunchRequest struct {
	// Client identifies the session; the X-Flep-Client header takes
	// precedence. Empty means "anonymous".
	Client string `json:"client,omitempty"`
	// Benchmark names a loaded kernel (see /v1/benchmarks).
	Benchmark string `json:"benchmark"`
	// Class is "large", "small" (default), or "trivial".
	Class string `json:"class,omitempty"`
	// Priority is the HPF level / FFS weight key (default 1).
	Priority int `json:"priority,omitempty"`
	// Weight, when positive on an FFS daemon, sets this priority level's
	// share weight.
	Weight float64 `json:"weight,omitempty"`
	// TasksOverride replaces the input's task count when positive.
	TasksOverride int `json:"tasks_override,omitempty"`
	// TimeoutMS caps this request's wait (bounded by the server default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// DeadlineMS, when positive, is the launch's SLO budget: the
	// invocation must finish within this many virtual milliseconds of
	// admission. Missing it is an accounting event (flep_slo_missed_total,
	// "slo":"missed" in the result), never an execution error.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// SLOClass is "latency" (requires deadline_ms) or "best_effort" (the
	// default; forbids deadline_ms). Empty infers the class from
	// deadline_ms's presence. Best-effort launches are shed with 429 when
	// the queue crowds past the cost-aware share while deadline-bearing
	// work is outstanding.
	SLOClass string `json:"slo_class,omitempty"`
	// Graph coordinates turn this launch into one stage of a DAG-shaped
	// model workload (see internal/model and deps.go). Graph is the
	// client-chosen instance id (scoped per client), Stage this launch's
	// name within it, After the stage names that must complete before it
	// is admitted, and Stages the graph's declared total stage count
	// (required, consistent across the instance — it is how the daemon
	// knows when the graph is finished). A stage whose prerequisites are
	// outstanding is parked in a bounded pending-dependency table; a
	// failed or shed prerequisite cancels it with 409.
	Graph  string   `json:"graph,omitempty"`
	Stage  string   `json:"stage,omitempty"`
	After  []string `json:"after,omitempty"`
	Stages int      `json:"stages,omitempty"`
	// Model names the workload the graph instance aggregates under in
	// per-model accounting (default "default").
	Model string `json:"model,omitempty"`
}

// Record is the launch as a replay trace record — the one conversion for
// everyone who records a request it sent or relayed (the admission loop
// records what it resolved instead). It carries the request's own fields,
// graph coordinates included; the caller stamps when and where the launch
// ran (At, Device, Node).
func (r *LaunchRequest) Record() replay.Record {
	budget := time.Duration(r.DeadlineMS) * time.Millisecond
	return replay.Record{
		Client: r.Client, Bench: r.Benchmark, Class: r.Class,
		Priority: r.Priority, Weight: r.Weight, TasksOverride: r.TasksOverride,
		DeadlineNS: int64(budget), SLOClass: recordSLOClass(budget),
		Model: r.Model, GraphID: r.Graph, Stage: r.Stage, After: r.After,
	}
}

// Status is the JSON body of GET /v1/status. On a fleet daemon the
// top-level Status carries the aggregated counters and queue figures, with
// per-shard breakdowns under Devices.
type Status struct {
	Policy       string   `json:"policy"`
	Spatial      bool     `json:"spatial"`
	Device       int      `json:"device"`
	Devices      []Status `json:"devices,omitempty"`
	Benchmarks   []string `json:"benchmarks"`
	UptimeMS     int64    `json:"uptime_ms"`
	VirtualNowUS float64  `json:"virtual_now_us"`
	QueueLen     int      `json:"queue_len"`
	QueueCap     int      `json:"queue_cap"`
	// MemoryFreeBytes is the unreserved simulated device memory (summed
	// across shards on a fleet): the placement signal a cluster gateway
	// reads from this snapshot.
	MemoryFreeBytes int64     `json:"memory_free_bytes"`
	Paused          bool      `json:"paused"`
	Draining        bool      `json:"draining"`
	Sessions        int       `json:"sessions"`
	Counters        counters  `json:"counters"`
	TraceEntries    int       `json:"trace_entries,omitempty"`
	TraceDropped    int       `json:"trace_dropped,omitempty"`
	ExactlyOnceOK   bool      `json:"exactly_once_ok"`
	SLO             SLOStatus `json:"slo"`
	// Models is the per-model accounting block (one row per model name
	// seen in graph-bearing launches); its counts reconcile exactly with
	// the flep_model_* metric families.
	Models []ModelStatus `json:"models,omitempty"`
}

// SLOStatus summarizes the deadline tier: how many deadline-bearing
// launches met their budget, how many best-effort launches were shed to
// protect them, and the mean completion margin (negative pulls from
// misses). The raw counts also live in Counters so metrics reconcile.
type SLOStatus struct {
	Attained       int64   `json:"attained"`
	Missed         int64   `json:"missed"`
	BestEffortShed int64   `json:"best_effort_shed"`
	AttainRate     float64 `json:"attain_rate"`
	MeanMarginUS   float64 `json:"mean_margin_us"`
}

// APIError is the JSON body of every non-2xx answer that is not a launch
// result.
type APIError struct {
	Error string `json:"error"`
}

// jsonAppender is a terminal answer that renders itself: appendJSON appends
// exactly the bytes an indenting json.Encoder writes for the value, or
// returns nil to leave the value (and its refusal) to encoding/json.
// TestAppendJSONMatchesEncodingJSON holds each one to that, field by field.
type jsonAppender interface {
	appendJSON(b []byte) []byte
}

func (e APIError) appendJSON(b []byte) []byte {
	b = appendJSONString(append(b, "{\n  \"error\": "...), e.Error)
	return append(b, "\n}\n"...)
}

func (r *LaunchResult) appendJSON(b []byte) []byte {
	if math.IsNaN(r.NTT) || math.IsInf(r.NTT, 0) {
		return nil
	}
	b = strconv.AppendInt(append(b, "{\n  \"id\": "...), int64(r.ID), 10)
	b = appendJSONString(appendJSONKey(b, "client"), r.Client)
	b = appendJSONString(appendJSONKey(b, "kernel"), r.Kernel)
	b = appendJSONString(appendJSONKey(b, "class"), r.Class)
	b = strconv.AppendInt(appendJSONKey(b, "priority"), int64(r.Priority), 10)
	b = strconv.AppendInt(appendJSONKey(b, "device"), int64(r.Device), 10)
	b = strconv.AppendInt(appendJSONKey(b, "submitted_virtual_ns"), r.SubmittedVirtualNS, 10)
	b = strconv.AppendInt(appendJSONKey(b, "finished_virtual_ns"), r.FinishedVirtualNS, 10)
	b = strconv.AppendInt(appendJSONKey(b, "turnaround_ns"), r.TurnaroundNS, 10)
	b = strconv.AppendInt(appendJSONKey(b, "waiting_ns"), r.WaitingNS, 10)
	b = strconv.AppendInt(appendJSONKey(b, "execution_ns"), r.ExecutionNS, 10)
	if r.NTT != 0 {
		b = appendJSONFloat(appendJSONKey(b, "ntt"), r.NTT)
	}
	b = strconv.AppendInt(appendJSONKey(b, "preemptions"), int64(r.Preemptions), 10)
	b = strconv.AppendInt(appendJSONKey(b, "preempt_overhead_estimate_ns"), r.PreemptEstimateNS, 10)
	b = strconv.AppendInt(appendJSONKey(b, "overhead_ns"), r.OverheadNS, 10)
	b = strconv.AppendInt(appendJSONKey(b, "queue_wait_real_ns"), r.QueueWaitRealNS, 10)
	if r.DeadlineVirtualNS != 0 {
		b = strconv.AppendInt(appendJSONKey(b, "deadline_virtual_ns"), r.DeadlineVirtualNS, 10)
	}
	if r.SLO != "" {
		b = appendJSONString(appendJSONKey(b, "slo"), r.SLO)
	}
	if r.SLOMarginNS != 0 {
		b = strconv.AppendInt(appendJSONKey(b, "slo_margin_ns"), r.SLOMarginNS, 10)
	}
	if r.Canceled != "" {
		b = appendJSONString(appendJSONKey(b, "canceled"), r.Canceled)
	}
	if r.Err != "" {
		b = appendJSONString(appendJSONKey(b, "error"), r.Err)
	}
	return append(b, "\n}\n"...)
}

// appendJSONKey opens an object's second or later member.
func appendJSONKey(b []byte, key string) []byte {
	b = append(b, ",\n  \""...)
	b = append(b, key...)
	return append(b, "\": "...)
}

// appendJSONString copies a string encoding/json would copy (printable
// ASCII, none of its five escapes) between quotes and hands any other to
// encoding/json itself, so there is one escaper.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat is encoding/json's floatEncoder for a finite float64:
// ES6 number formatting, exponent form below 1e-6 and from 1e21.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		return append(b[:n-2], b[n-1]) // e-07 is written e-7
	}
	return b
}

// jsonEnc pairs a reusable buffer with an encoder bound to it, so hot
// handlers (launch results, status polls) serialize each response with
// zero per-call encoder/buffer allocations.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	e.enc.SetIndent("", "  ")
	return e
}}

// jsonEncKeepBytes bounds what a recycled buffer may retain: one giant
// /v1/sessions or /v1/trace dump must not pin its backing array in the
// pool forever.
const jsonEncKeepBytes = 64 << 10

// jsonContentType is every JSON answer's Content-Type value, assigned
// rather than Set so an answer does not allocate a slice for it. Its
// length is its capacity: a later Header.Add reallocates.
var jsonContentType = []string{"application/json"}

// WriteJSON answers with v rendered the way every endpoint of the serving
// tier renders JSON (two-space indent, trailing newline): appended into
// the pooled buffer by the value itself when it is a jsonAppender (the
// launch path's two answers), by encoding/json otherwise.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	var err error
	if a, ok := v.(jsonAppender); ok {
		e.buf.Write(a.appendJSON(e.buf.AvailableBuffer()))
	}
	if e.buf.Len() == 0 { // not an appender, or it declined
		err = e.enc.Encode(v)
	}
	w.Header()["Content-Type"] = jsonContentType
	if err != nil {
		jsonEncPool.Put(e)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\n  \"error\": %q\n}\n", "encode response: "+err.Error())
		return
	}
	w.WriteHeader(code)
	_, _ = w.Write(e.buf.Bytes())
	if e.buf.Cap() > jsonEncKeepBytes {
		return // dropped on purpose, see jsonEncKeepBytes
	}
	jsonEncPool.Put(e)
}

// daemon is what the HTTP surface fronts: one Server, or a Fleet of them
// behind a placement router. Everything a daemon answers over HTTP goes
// through this one handler set, so flepd (a Fleet) and an embedded Server
// cannot drift apart.
type daemon interface {
	handleLaunch(w http.ResponseWriter, r *http.Request)
	Status() Status
	SessionSnapshots() []SessionSnapshot
	catalog() []BenchmarkInfo
	// TraceEntries returns the last limit entries of the (kind-filtered)
	// event log, all of them when limit is not positive; ok is false when
	// tracing is off.
	TraceEntries(kind string, limit int) (entries []trace.Entry, ok bool)
	Pause() error
	Resume() error
	Draining() bool
	writeMetrics(w io.Writer) error
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler { return newHandler(s) }

func newHandler(d daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/launch", d.handleLaunch)
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, d.Status())
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, d.SessionSnapshots())
	})
	mux.HandleFunc("GET /v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, d.catalog())
	})
	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) { handleTrace(d, w, r) })
	mux.HandleFunc("POST /v1/pause", func(w http.ResponseWriter, r *http.Request) { handlePause(w, d.Pause(), true) })
	mux.HandleFunc("POST /v1/resume", func(w http.ResponseWriter, r *http.Request) { handlePause(w, d.Resume(), false) })
	// /healthz is pure liveness: it answers 200 for as long as the process
	// can serve HTTP, draining or not. A draining daemon is alive — it is
	// finishing accepted work — and restarting it on a failed liveness
	// probe would lose exactly that work. Routing decisions belong to
	// /readyz.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	// /readyz is the routing signal: 503 from the instant any shard begins
	// draining (before in-flight work finishes), so a load balancer or the
	// flepgw gateway stops routing new launches here immediately.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if d.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = d.writeMetrics(w) // a failed write is the scraper hanging up
	})
	return mux
}

// anonymous is the session of a launch that names no client.
const anonymous = "anonymous"

// ResolveClient names the session a launch belongs to: the X-Flep-Client
// header over the body's client field over anonymous.
func ResolveClient(r *http.Request, bodyClient string) string {
	if client := r.Header.Get("X-Flep-Client"); client != "" {
		return client
	}
	if bodyClient != "" {
		return bodyClient
	}
	return anonymous
}

// decodeLaunch parses the request body and resolves the client identity.
func decodeLaunch(w http.ResponseWriter, r *http.Request) (LaunchRequest, string, error) {
	var req LaunchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		return LaunchRequest{}, "", err
	}
	return req, ResolveClient(r, req.Client), nil
}

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	req, client, err := decodeLaunch(w, r)
	if err != nil {
		s.refuse(w, outRejectedInvalid, "", fmt.Errorf("bad request body: %w", err))
		return
	}
	s.serveLaunch(w, r, req, client)
}

// refuse counts a launch that ended without becoming queue work, then
// answers it: no refusal reaches the client uncounted.
func (s *Server) refuse(w http.ResponseWriter, o outcome, client string, err error) {
	s.count(o, client)
	status := outcomes[o].refusal
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	}
	WriteJSON(w, status, APIError{err.Error()})
}

// serveLaunch admits one parsed launch on this shard, awaits its result
// and answers. The fleet router calls it directly after placement, so
// every outcome — including validation rejects — is accounted on the
// shard that handled it.
func (s *Server) serveLaunch(w http.ResponseWriter, r *http.Request, req LaunchRequest, client string) {
	q, o, err := s.admitLaunch(&req, client)
	if err != nil {
		s.refuse(w, o, client, err)
		return
	}

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-q.done:
		s.met.RequestLatency.Observe(time.Since(q.enqueuedReal).Seconds())
		// The terminal result arrived, so the loop is finished with q and
		// this handler holds exclusive ownership again (res is a copy).
		putLaunchReq(q)
		status := http.StatusOK
		if res.Canceled != "" {
			status = http.StatusConflict
		} else if res.Err != "" {
			status = http.StatusUnprocessableEntity
		}
		WriteJSON(w, status, &res)
	case <-timer.C:
		// q is deliberately NOT recycled on the timeout and cancel paths:
		// the loop (or the dependency table) still owns it until the
		// buffered terminal send lands, after which nothing references it
		// and it is garbage collected. The invocation is NOT lost: the loop
		// finishes and accounts it; only this handler stops waiting.
		s.count(outTimedOut, client)
		WriteJSON(w, http.StatusGatewayTimeout,
			APIError{"timed out waiting for completion; the invocation still runs to completion"})
	case <-r.Context().Done():
		// q stays with the loop, as in the timeout arm. The session records
		// the abandonment so /v1/sessions can tell it from a live waiter.
		s.count(outCanceled, client)
	}
}

// maxDurationMS is the most milliseconds a time.Duration holds: a larger
// timeout_ms or deadline_ms wraps when it is multiplied out.
const maxDurationMS = math.MaxInt64 / int64(time.Millisecond)

// admitLaunch validates one parsed launch, consults the dependency table
// and hands the launch to the event loop. It returns the request the
// loop (or, for a parked stage, the table) now owns, or the outcome that
// refused it and the error to answer. It takes no ResponseWriter on
// purpose: a refusal has to name its outcome for the caller to count.
func (s *Server) admitLaunch(req *LaunchRequest, client string) (*launchReq, outcome, error) {
	bench, ok := s.benches[req.Benchmark]
	if !ok {
		return nil, outRejectedInvalid, errors.New("unknown or unloaded benchmark " + strconv.Quote(req.Benchmark))
	}
	class, err := kernels.ParseClass(req.Class)
	if err != nil {
		return nil, outRejectedInvalid, err
	}
	prio := req.Priority
	if prio == 0 {
		prio = 1
	}
	if prio < 0 || req.TasksOverride < 0 || req.Weight < 0 {
		return nil, outRejectedInvalid, errors.New("priority, weight and tasks_override must be non-negative")
	}
	if t, d := int64(req.TimeoutMS), int64(req.DeadlineMS); t < 0 || d < 0 || t > maxDurationMS || d > maxDurationMS {
		return nil, outRejectedInvalid, fmt.Errorf("timeout_ms and deadline_ms must be between 0 and %d", maxDurationMS)
	}
	deadline, err := parseSLO(req.SLOClass, req.DeadlineMS)
	if err != nil {
		return nil, outRejectedInvalid, err
	}
	if err := validateDepSpec(req); err != nil {
		return nil, outRejectedInvalid, err
	}

	q := getLaunchReq()
	q.client = client
	q.Launch = core.Launch{
		Bench: bench, Class: class, TasksOverride: req.TasksOverride,
		Priority: prio, Weight: req.Weight, Budget: deadline, Dependent: req.Graph != "",
	}
	q.graph, q.stage, q.model = req.Graph, req.Stage, req.Model
	q.after, q.stages = req.After, req.Stages
	q.enqueuedReal = time.Now()

	if q.graph != "" {
		// The answer stays 503 draining if the loop has already exited.
		parked, refused, err := false, outRejectedDraining, ErrDraining
		_ = s.ctrl(func(st *loopState) { parked, refused, err = s.depAdmit(q, st) })
		if err != nil {
			// A dep_canceled stage stays registered as canceled; like the
			// rejects it never becomes queue work or enters the ledger.
			putLaunchReq(q)
			return nil, refused, err
		}
		if parked {
			// The table owns q until a completion releases it or a cascade
			// cancels it. A parked stage passed validation and holds a
			// bounded table slot, so it is accepted work and gets a session;
			// it is counted when admitReleased makes it queue work.
			s.mu.Lock()
			s.session(client)
			s.mu.Unlock()
			return q, outUnset, nil
		}
	}

	if err = s.tryEnqueue(q); err == nil {
		// The loop may already be running q; whichever side reaches the
		// ledger first counts the enqueue (countEnqueuedLocked).
		s.countEnqueued(q)
		return q, outUnset, nil
	}
	if q.graph != "" {
		// The failure also dooms the stage's descendants; the cascade runs
		// before q is recycled because it reads q's graph coordinates.
		// ErrStopped needs nothing: the exited loop's final sweep
		// (Table.Drain) closed every graph.
		_ = s.ctrl(func(*loopState) { s.deps.Fail(q.key(), q.stage) })
	}
	putLaunchReq(q) // the loop never saw it; safe to recycle now
	switch {
	case errors.Is(err, ErrQueueFull):
		return nil, outRejectedFull, err
	case errors.Is(err, ErrBestEffortShed):
		return nil, outRejectedShed, err
	}
	return nil, outRejectedDraining, err
}

// parseSLO resolves the request's SLO class and deadline (range-checked by
// admitLaunch) into the virtual-time budget the admitted invocation will
// carry (zero = best-effort).
func parseSLO(class string, deadlineMS int) (time.Duration, error) {
	d := time.Duration(deadlineMS) * time.Millisecond
	switch class {
	case "":
		return d, nil
	case "latency":
		if d == 0 {
			return 0, fmt.Errorf(`slo_class "latency" requires a positive deadline_ms`)
		}
		return d, nil
	case "best_effort":
		if d > 0 {
			return 0, fmt.Errorf(`slo_class "best_effort" cannot carry a deadline_ms`)
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unknown slo_class %q (want latency or best_effort)", class)
}

// Status assembles the shard's live status (the fleet aggregates these
// across devices).
func (s *Server) Status() Status {
	names := make([]string, 0, len(s.info))
	for _, bi := range s.info {
		names = append(names, bi.Name)
	}
	s.mu.Lock()
	st := Status{
		Policy:          s.cfg.Policy,
		Spatial:         s.cfg.Spatial,
		Device:          s.device,
		Benchmarks:      names,
		UptimeMS:        time.Since(s.startReal).Milliseconds(),
		VirtualNowUS:    float64(s.vnow.Load()) / 1e3,
		QueueLen:        len(s.submitCh),
		QueueCap:        cap(s.submitCh),
		MemoryFreeBytes: s.MemoryAvailable(),
		Paused:          s.paused.Load(),
		Sessions:        len(s.sessions),
		Counters:        s.countersLocked(),
		// In-flight work keeps the invariant an inequality; at rest
		// (drained or idle) it must hold with equality.
		ExactlyOnceOK: s.c.inFlight() >= 0,
		SLO: SLOStatus{
			Attained:       s.runs.Attained,
			Missed:         s.runs.Missed,
			BestEffortShed: s.c[outRejectedShed],
			AttainRate:     s.runs.AttainRate(),
		},
	}
	if n := st.SLO.Attained + st.SLO.Missed; n > 0 {
		st.SLO.MeanMarginUS = float64(s.runs.Margin) / float64(n) / 1e3
	}
	s.mu.Unlock()
	st.Draining = s.Draining()
	// Outside mu: the loop takes mu to count, so waiting on it under mu
	// could deadlock.
	s.onLoop(func() {
		st.Models = s.modelStatuses()
		if s.tlog != nil {
			st.TraceEntries = s.tlog.Len()
			st.TraceDropped = s.tlog.Dropped()
		}
	})
	return st
}

func (s *Server) catalog() []BenchmarkInfo { return s.info }

// TraceEntries returns the last limit entries of the shard's
// (kind-filtered) event log, all of them when limit is not positive,
// copied on the loop that owns it; ok is false when tracing is off. Only
// the answer is copied, so the loop pays for what the caller keeps.
func (s *Server) TraceEntries(kind string, limit int) (entries []trace.Entry, ok bool) {
	if s.tlog == nil {
		return nil, false
	}
	s.onLoop(func() { entries = s.tlog.Filter(kind, limit) })
	return entries, true
}

// queryLimit is a trace query's ?limit=N, or 0 (no limit) when it is
// absent, malformed or not positive.
func queryLimit(r *http.Request) int {
	if n, err := strconv.Atoi(r.URL.Query().Get("limit")); err == nil && n > 0 {
		return n
	}
	return 0
}

func handleTrace(d daemon, w http.ResponseWriter, r *http.Request) {
	entries, ok := d.TraceEntries(r.URL.Query().Get("kind"), queryLimit(r))
	if !ok {
		WriteJSON(w, http.StatusNotFound, APIError{"trace disabled; start flepd with -trace"})
		return
	}
	WriteTrace(w, r, entries)
}

// WriteTrace answers GET /v1/trace with entries: the last ?limit=N of them,
// as JSON or, with ?format=text, one Entry.WriteText line each; any other
// format is a 400. The gateway renders its merged stream through it too, so
// both tiers serve one query surface.
func WriteTrace(w http.ResponseWriter, r *http.Request, entries []trace.Entry) {
	if n := queryLimit(r); n > 0 && n < len(entries) {
		entries = entries[len(entries)-n:]
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		WriteJSON(w, http.StatusOK, entries)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, e := range entries {
			if e.WriteText(w) != nil {
				return
			}
		}
	default:
		WriteJSON(w, http.StatusBadRequest, APIError{"unknown format (want json or text)"})
	}
}

// handlePause answers a pause (paused=true) or resume request whose
// control message returned err.
func handlePause(w http.ResponseWriter, err error, paused bool) {
	if err != nil {
		WriteJSON(w, http.StatusServiceUnavailable, APIError{err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"paused": paused})
}
