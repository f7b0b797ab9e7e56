package perf

// Workload names, in the order flepperf runs them.
const (
	LaunchTrivial  = "launch_trivial"
	LaunchFFSLarge = "launch_ffs_large"
	LaunchOverload = "launch_overload"
	Gateway2Node   = "gateway_2node"
	ReplayWhatIf   = "replay_whatif"
	PaperSuite     = "paper_suite"
)

// Workload is one set of inputs the benchmark runs, with the reason it
// was chosen (BENCHMARK.json's "why").
type Workload struct {
	Name string
	Why  string
}

// Workloads lists the six workloads.
func Workloads() []Workload {
	return []Workload{
		{LaunchTrivial, "HPF server on loopback, trivial launches: 3 sim events per launch, so server codec/admission and net/http do nearly all the work"},
		{LaunchFFSLarge, "FFS server, 4 weighted tenants, large launches: 125-175 events and 23-40 preemptions per launch, so sim+gpu+flepruntime set the throughput"},
		{LaunchOverload, "EDF server, queue 16, 32 in-process clients retrying 429s: the reject/shed/deadline paths run beside accepts and the server saturates"},
		{Gateway2Node, "cluster gateway over two nodes on fixed ports with 10 Hz status/metrics scrapes: the cluster hop and aggregation path under load"},
		{ReplayWhatIf, "seeded mix replayed under hpf/ffs/edf/fifo on 1 and 2 devices: core/runtime/gpu/sim on the virtual clock with no server at all"},
		{PaperSuite, "all 19 paper artefacts regenerated repeatedly: host time to reproduce the paper and its error against the reported headline values"},
	}
}

// Kind says where a metric is reported.
type Kind int

const (
	// EndToEnd metrics are defined on every workload and printed by the
	// timed pass; BENCHMARK.json lists them under end_to_end.
	EndToEnd Kind = iota
	// Specific metrics are end-to-end in nature but exist on some
	// workloads only (0 elsewhere). The driver contract wants one
	// end_to_end set for all workloads, so BENCHMARK.json lists these
	// under per_layer; `flepperf -agree` still holds them to their bound.
	Specific
	// Layer metrics come from the traced pass: span self times, counter
	// deltas and isolated probes. They carry no bound.
	Layer
)

// Metric is one named measurement.
type Metric struct {
	Name string
	Unit string
	// HigherBetter is the direction of improvement.
	HigherBetter bool
	Kind         Kind
	// Rel is the share of the reference median by which the metric may
	// worsen; Abs an absolute slack used instead when Rel is 0; Exact
	// marks a virtual-clock statistic that must repeat exactly for one
	// seed.
	Rel   float64
	Abs   float64
	Exact bool
	// AbsOn overrides the bound per workload with an absolute slack
	// (slo_attain_rate is host-noisy on launch_overload, exact on replay).
	AbsOn map[string]float64
}

// Better renders the direction as BENCHMARK.json spells it.
func (m Metric) Better() string {
	if m.HigherBetter {
		return "higher"
	}
	return "lower"
}

// Metrics returns the whole catalogue: the end-to-end metrics first, then
// the workload-specific ones, then the per-layer ones in layer order.
func Metrics() []Metric {
	ms := []Metric{
		{Name: "launches_per_s", Unit: "1/s", HigherBetter: true, Kind: EndToEnd, Rel: 0.25},
		{Name: "launch_p50_us", Unit: "us", Kind: EndToEnd, Rel: 0.25},
		{Name: "launch_p99_us", Unit: "us", Kind: EndToEnd, Rel: 0.25},
		{Name: "cpu_us_per_launch", Unit: "us", Kind: EndToEnd, Rel: 0.25},
		{Name: "setup_s", Unit: "s", Kind: EndToEnd, Rel: 0.25},

		{Name: "failed_share", Unit: "ratio", Kind: Specific, Abs: 0.001},
		{Name: "slo_attain_rate", Unit: "ratio", HigherBetter: true, Kind: Specific, Exact: true,
			AbsOn: map[string]float64{LaunchOverload: 0.02}},
		{Name: "replay_records_per_s", Unit: "1/s", HigherBetter: true, Kind: Specific, Rel: 0.25},
		{Name: "hp_antt", Unit: "ratio", Kind: Specific, Exact: true},
		{Name: "ffs_fairness", Unit: "ratio", HigherBetter: true, Kind: Specific, Exact: true},
		{Name: "drain_p99_us", Unit: "us", Kind: Specific, Exact: true},
		{Name: "suite_regen_ms", Unit: "ms", Kind: Specific, Rel: 0.25},
		{Name: "paper_err_pct", Unit: "%", Kind: Specific, Exact: true},
	}
	for _, l := range layerMetrics {
		ms = append(ms, Metric{Name: l[0], Unit: l[1], HigherBetter: l[2] == "higher", Kind: Layer})
	}
	return ms
}

// layerMetrics is {name, unit, better} for every per-layer metric. Names
// are <module>.<metric>; README.md says which end-to-end metric each one
// should move.
var layerMetrics = [][3]string{
	// Spans of the traced pass, median µs per sampled launch.
	{"client.self_us", "us", "lower"},
	{"transport.self_us", "us", "lower"},
	{"cluster.self_us", "us", "lower"},
	{"cluster.backend_rtt_us", "us", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.admission_wait_us", "us", "lower"},
	{"server.self_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	// Counts of the traced pass.
	{"server.loop_steps_per_launch", "count", "lower"},
	{"server.loop_steps_per_s", "1/s", "higher"},
	{"server.admission_batch_mean", "count", "higher"},
	{"server.rejected_queue_full", "count", "lower"},
	{"server.shed_best_effort", "count", "lower"},
	{"server.retries_per_launch", "count", "lower"},
	{"flepruntime.preemptions_per_launch", "count", "lower"},
	{"flepruntime.drain_latency_mean_us", "us", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.node_share_max", "ratio", "lower"},
	{"cluster.status_us", "us", "lower"},
	{"cluster.metrics_us", "us", "lower"},
	{"proc.allocs_per_launch", "count", "lower"},
	{"proc.bytes_per_launch", "B", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	// Isolated probes of each layer's public API.
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.allocs_per_event", "count", "lower"},
	{"sim.cancel_ns", "ns", "lower"},
	{"gpu.ns_per_exec_solo", "ns", "lower"},
	{"gpu.events_per_exec_solo", "count", "lower"},
	{"gpu.ns_per_preempt_resume", "ns", "lower"},
	{"gpu.events_per_preempt_resume", "count", "lower"},
	{"flepruntime.hpf_ns_per_launch_d1", "ns", "lower"},
	{"flepruntime.hpf_ns_per_launch_d64", "ns", "lower"},
	{"flepruntime.hpf_ns_per_launch_d1024", "ns", "lower"},
	{"flepruntime.ffs_ns_per_launch_d1", "ns", "lower"},
	{"flepruntime.ffs_ns_per_launch_d64", "ns", "lower"},
	{"flepruntime.ffs_ns_per_launch_d1024", "ns", "lower"},
	{"flepruntime.edf_ns_per_launch_d1", "ns", "lower"},
	{"flepruntime.edf_ns_per_launch_d64", "ns", "lower"},
	{"flepruntime.edf_ns_per_launch_d1024", "ns", "lower"},
	{"flepruntime.ffs_steps_per_launch_d64", "count", "lower"},
	{"core.offline_all_ms", "ms", "lower"},
	{"core.clone_us", "us", "lower"},
	{"core.predict_ns", "ns", "lower"},
	{"core.runflep_pair_us", "us", "lower"},
	{"core.runmps_pair_us", "us", "lower"},
	{"server.inproc_ns_per_launch", "ns", "lower"},
	{"server.inproc_allocs_per_launch", "count", "lower"},
	{"server.reject_ns", "ns", "lower"},
	{"server.dep_ns_per_stage", "ns", "lower"},
	{"server.fleet4_inproc_ns_per_launch", "ns", "lower"},
	{"server.status_us", "us", "lower"},
	{"server.sessions_us", "us", "lower"},
	{"server.metrics_scrape_us", "us", "lower"},
	{"cluster.hop_us", "us", "lower"},
	{"cluster.sessions_us", "us", "lower"},
	{"replay.record_ns", "ns", "lower"},
	{"replay.load_ns_per_record", "ns", "lower"},
	{"replay.run_ns_per_record_hpf", "ns", "lower"},
	{"replay.run_ns_per_record_ffs", "ns", "lower"},
	{"replay.run_ns_per_record_edf", "ns", "lower"},
	{"replay.run_ns_per_record_fifo", "ns", "lower"},
	{"replay.whatif_ms", "ms", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.histogram_observe_ns", "ns", "lower"},
	{"obs.write_prometheus_us", "us", "lower"},
	{"obs.parse_text_us", "us", "lower"},
	{"obs.relabel_us", "us", "lower"},
	{"experiments.offline_ms", "ms", "lower"},
	{"experiments.fig7_ms", "ms", "lower"},
	{"experiments.fig12_ms", "ms", "lower"},
	{"experiments.fig13_ms", "ms", "lower"},
	{"experiments.fig14_ms", "ms", "lower"},
	{"experiments.rest_ms", "ms", "lower"},
	{"transform.program_us", "us", "lower"},
	{"hostexec.run_program_ms", "ms", "lower"},
	{"model.validate_us", "us", "lower"},
}

// MetricByName indexes the catalogue.
func MetricByName() map[string]Metric {
	out := map[string]Metric{}
	for _, m := range Metrics() {
		out[m.Name] = m
	}
	return out
}

// Values is one run's measurements by metric name.
type Values map[string]float64
