package server

import (
	"io"

	"flep/internal/model"
	"flep/internal/obs"
)

// serverMetrics mirrors the daemon's request accounting (the counters
// struct) onto the observability registry, plus the real-time latency
// distributions that the JSON counters cannot express. The counters
// struct under Server.mu stays the source of truth for /v1/status and
// the exactly-once invariant; countLocked moves both together, so
// `flep_server_launches_total{outcome=...}` reconciles exactly with
// /v1/status at rest.
type serverMetrics struct {
	// launches is flep_server_launches_total, one series per outcome,
	// labeled so one family tells the whole admission story. Only
	// countLocked increments them.
	launches [numOutcomes]*obs.Counter

	// SLO tier: attained/missed partition deadline-bearing completions;
	// the margin histogram records (deadline − completion) in virtual
	// seconds, so its negative mass is exactly the missed count and the
	// positive tail shows how much slack attained launches had.
	SLOAttained *obs.Counter
	SLOMissed   *obs.Counter
	SLOMargin   *obs.Histogram

	// RequestLatency is the real wall-clock time from enqueue to the
	// handler receiving its terminal result. AdmissionWait is the real
	// time a request sat in the bounded queue before the loop admitted
	// it (the backpressure signal).
	RequestLatency *obs.Histogram
	AdmissionWait  *obs.Histogram

	// AdmitBatches counts the loop's batched absorb passes and
	// AdmitBatchSize distributes how many launches each admitted: mean
	// batch size (sum/count) ≫ 1 under load means the batching is
	// actually amortizing per-launch loop overhead.
	AdmitBatches   *obs.Counter
	AdmitBatchSize *obs.Histogram

	// NTT is the per-completion solo-normalized turnaround (the paper's
	// responsiveness currency): _sum/_count of this histogram is the
	// daemon-side ANTT, so flepload (and a cluster gateway's per-node
	// breakdown) can derive ANTT from metrics deltas alone.
	NTT *obs.Histogram

	// model is the model ledger (see deps.go), one series per model.Kind;
	// ModelSLOAttained/ModelSLOMissed mirror the verdicts of the completed
	// stages. Only countModel moves them, with the model's
	// /v1/status row, so the families reconcile exactly with the models
	// block. Labels are compile-time literals; the per-model-name breakdown
	// lives only in the bounded JSON models block.
	model            [model.NumKinds]*obs.Counter
	ModelSLOAttained *obs.Counter
	ModelSLOMissed   *obs.Counter
}

// newServerMetrics registers the server metric families and the
// scrape-time gauges that read live daemon state.
func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{
		SLOAttained: reg.Counter("flep_slo_attained_total",
			"Deadline-bearing launches that finished at or before their virtual-time deadline"),
		SLOMissed: reg.Counter("flep_slo_missed_total",
			"Deadline-bearing launches that finished after their virtual-time deadline"),
		SLOMargin: reg.Histogram("flep_slo_margin_seconds",
			"Virtual seconds from completion to deadline per deadline-bearing launch (negative = missed)",
			[]float64{-1, -0.1, -0.01, -0.001, 0, 0.001, 0.01, 0.1, 1, 10}),
		RequestLatency: reg.Histogram("flep_server_request_latency_seconds",
			"Real time from enqueue to the handler receiving its result", nil),
		AdmissionWait: reg.Histogram("flep_server_admission_wait_seconds",
			"Real time a request spent in the bounded admission queue", nil),
		AdmitBatches: reg.Counter("flep_server_admission_batches_total",
			"Batched absorb passes executed by the event loop"),
		AdmitBatchSize: reg.Histogram("flep_server_admission_batch_size",
			"Launches admitted per batched absorb pass (sum/count = mean batch)",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		NTT: reg.Histogram("flep_server_ntt",
			"Solo-normalized turnaround per completed invocation (sum/count = ANTT)",
			[]float64{1, 1.5, 2, 3, 5, 8, 13, 21, 34, 55, 100}),
	}
	for o := outEnqueued; o < numOutcomes; o++ {
		m.launches[o] = reg.Counter("flep_server_launches_total",
			"Launch requests by terminal outcome", "outcome", outcomes[o].label) //flepvet:allow metriclabel -- the label is a compile-time literal of the outcomes table; cardinality is fixed
	}
	graphs := func(outcome string) *obs.Counter {
		return reg.Counter("flep_model_graphs_total",
			"Model graph instances by outcome", "outcome", outcome) //flepvet:allow metriclabel -- outcome is one of the three compile-time literals below; cardinality is fixed
	}
	stages := func(outcome string) *obs.Counter {
		return reg.Counter("flep_model_stages_total",
			"Model graph stages by terminal outcome", "outcome", outcome) //flepvet:allow metriclabel -- outcome is one of the two compile-time literals below; cardinality is fixed
	}
	m.model[model.GraphStarted] = graphs("started")
	m.model[model.GraphCompleted] = graphs("completed")
	m.model[model.GraphCanceled] = graphs("canceled")
	m.model[model.StageCompleted] = stages("completed")
	m.model[model.StageCanceled] = stages("canceled")
	m.model[model.StageParked] = reg.Counter("flep_model_stages_parked_total",
		"Graph stages held in the pending-dependency table awaiting prerequisites")
	m.model[model.StageReleased] = reg.Counter("flep_model_stages_released_total",
		"Parked graph stages admitted after their prerequisites completed")
	m.model[model.GraphEvicted] = reg.Counter("flep_model_evictions_total",
		"Stalled graphs evicted from the bounded pending-dependency table")
	m.ModelSLOAttained = reg.Counter("flep_model_slo_attained_total",
		"Deadline-bearing graph stages that finished within their budget")
	m.ModelSLOMissed = reg.Counter("flep_model_slo_missed_total",
		"Deadline-bearing graph stages that finished past their budget")
	reg.GaugeFunc("flep_server_queue_depth", "Launch requests waiting in the admission queue",
		func() float64 { return float64(len(s.submitCh)) })
	reg.GaugeFunc("flep_slo_lc_outstanding", "Deadline-bearing launches admitted but not yet terminal",
		func() float64 { return float64(s.lcOutstanding.Load()) })
	reg.GaugeFunc("flep_server_best_effort_limit", "Queue occupancy at which best-effort launches are shed while deadlines are outstanding",
		func() float64 { return float64(s.beLimit) })
	reg.GaugeFunc("flep_server_queue_capacity", "Admission queue capacity",
		func() float64 { return float64(cap(s.submitCh)) })
	reg.GaugeFunc("flep_server_sessions", "Client sessions seen by the daemon",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})
	reg.GaugeFunc("flep_model_stages_held", "Graph stages currently parked in the pending-dependency table",
		func() float64 { return float64(s.depParkedCount()) })
	reg.GaugeFunc("flep_model_graphs_tracked", "Live graph instances tracked by the pending-dependency table",
		func() float64 { return float64(s.depGraphCount()) })
	reg.GaugeFunc("flep_server_virtual_time_seconds", "The simulation's virtual clock",
		func() float64 { return s.VirtualNow().Seconds() })
	reg.GaugeFunc("flep_server_loop_steps", "Simulation events stepped by the event loop",
		func() float64 { return float64(s.Steps()) })
	reg.GaugeFunc("flep_server_paused", "1 while the scheduler loop is parked",
		func() float64 {
			if s.paused.Load() {
				return 1
			}
			return 0
		})
	return m
}

// Registry exposes the daemon's metrics registry (tests and embedders
// scrape it directly; HTTP clients use GET /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// writeMetrics renders the Prometheus text exposition.
func (s *Server) writeMetrics(w io.Writer) error { return s.reg.WritePrometheus(w) }
