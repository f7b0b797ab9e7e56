package flepruntime

import (
	"flep/internal/obs"
)

// Metrics holds the runtime engine's instruments. All fields are nil-safe
// obs instruments, so the zero value is a valid "not instrumented"
// metrics set; NewMetrics wires every field to a registry. The families
// map directly onto the paper's measured quantities: preemption counts
// and drain latency are Figure 9/15's preemption-overhead substrate, the
// prediction-error histogram quantifies how far OverheadFor's estimate
// (§5.2's O_i) sits from the realized drain, and queue wait is the T_w
// term of Figure 12/13's turnaround accounting.
type Metrics struct {
	// Submits counts invocations accepted by Submit.
	Submits *obs.Counter
	// Dispatches counts primary dispatches; GuestDispatches counts
	// spatial-guest dispatches onto freed low SMs.
	Dispatches      *obs.Counter
	GuestDispatches *obs.Counter
	// TemporalPreempts and SpatialPreempts count realized drains by mode;
	// PreemptAborts counts preemption attempts whose victim raced to
	// completion before the flag could be set.
	TemporalPreempts *obs.Counter
	SpatialPreempts  *obs.Counter
	PreemptAborts    *obs.Counter
	// DrainLatency is the realized preemption latency: virtual time from
	// the preempt decision to the drained callback.
	DrainLatency *obs.Histogram
	// OverheadError is |OverheadFor's prediction − realized drain
	// latency| per preemption (seconds).
	OverheadError *obs.Histogram
	// QueueWait is the waiting-time segment folded into T_w at each
	// dispatch (seconds of virtual time).
	QueueWait *obs.Histogram
	// QueueLength tracks the waiting queue's depth, moved with every
	// insertion and removal.
	QueueLength *obs.Gauge
	// DependentSubmits counts accepted invocations that belong to a model
	// graph (released from the daemon's pending-dependency table);
	// DependentQueueLength tracks how many of the queued invocations are
	// graph stages, making dependency load visible in queue accounting.
	DependentSubmits     *obs.Counter
	DependentQueueLength *obs.Gauge

	// FFS policy internals (zero-valued under HPF).
	EpochsOpened   *obs.Counter
	EpochExtends   *obs.Counter
	EpochLength    *obs.Histogram
	TimersCanceled *obs.Counter
	Evictions      *obs.Counter
}

// NewMetrics registers the runtime metric families on reg and returns the
// wired instrument set. A nil registry yields a fully inert Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Submits:    reg.Counter("flep_runtime_submits_total", "Invocations accepted by the runtime"),
		Dispatches: reg.Counter("flep_runtime_dispatches_total", "Kernel dispatches by placement", "kind", "primary"),
		GuestDispatches: reg.Counter("flep_runtime_dispatches_total",
			"Kernel dispatches by placement", "kind", "guest"),
		TemporalPreempts: reg.Counter("flep_runtime_preemptions_total",
			"Realized preemption drains by mode", "mode", "temporal"),
		SpatialPreempts: reg.Counter("flep_runtime_preemptions_total",
			"Realized preemption drains by mode", "mode", "spatial"),
		PreemptAborts: reg.Counter("flep_runtime_preempt_aborts_total",
			"Preemption attempts whose victim completed before the flag was set"),
		DrainLatency: reg.Histogram("flep_runtime_drain_latency_seconds",
			"Virtual time from preempt decision to drained callback", nil),
		OverheadError: reg.Histogram("flep_runtime_overhead_prediction_error_seconds",
			"Absolute error of OverheadFor's estimate vs the realized drain latency", nil),
		QueueWait: reg.Histogram("flep_runtime_queue_wait_seconds",
			"Virtual waiting time folded into T_w at each dispatch", nil),
		QueueLength: reg.Gauge("flep_runtime_queue_length",
			"Invocations waiting in the policy queue"),
		DependentSubmits: reg.Counter("flep_runtime_dependent_submits_total",
			"Accepted invocations that are model-graph stages"),
		DependentQueueLength: reg.Gauge("flep_runtime_dependent_queue_length",
			"Model-graph stages waiting in the policy queue"),
		EpochsOpened: reg.Counter("flep_ffs_epochs_total",
			"FFS epochs opened (GPU handovers plus sole-tenant extensions)", "kind", "rotation"),
		EpochExtends: reg.Counter("flep_ffs_epochs_total",
			"FFS epochs opened (GPU handovers plus sole-tenant extensions)", "kind", "extension"),
		EpochLength: reg.Histogram("flep_ffs_epoch_length_seconds",
			"Length of each opened FFS epoch", nil),
		TimersCanceled: reg.Counter("flep_ffs_timers_canceled_total",
			"Superseded FFS epoch timers canceled before firing"),
		Evictions: reg.Counter("flep_ffs_evictions_total",
			"Departed kernels evicted from FFS's overhead table"),
	}
}
