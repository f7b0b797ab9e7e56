// Package obs is a dependency-free metrics layer for the FLEP daemon: a
// registry of counters, gauges, and histograms exposed in the Prometheus
// text format. The paper's evaluation is entirely about measured
// scheduling behaviour — preemption counts and latency (Figs. 9, 15),
// overhead ratio (Fig. 10/14), ANTT and wait time (Figs. 12, 13) — so a
// long-lived flepd must export exactly those signals live.
//
// Instruments are nil-safe: every method on a nil *Counter, *Gauge, or
// *Histogram is a no-op, so instrumented components run un-instrumented
// (tests, one-shot experiments) without guards at each call site.
//
// Histograms take observations in seconds. Because the simulator runs on
// a virtual clock whose interesting spans range from sub-microsecond
// drain latencies to multi-second epochs, the default bucket layout
// (DurationBuckets) is exponential from 1µs to ~30s.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add increases the counter by n (negative n panics: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("obs: counter decrement %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value. A load is an ordinary read where a store
// is an exchange, and the event loop re-sets gauges that rarely move (the
// device's occupancy gauges on every placement change), so an unchanged
// value is left alone.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	if bits := math.Float64bits(v); g.bits.Load() != bits {
		g.bits.Store(bits)
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a cumulative-bucket distribution of float64 observations
// (seconds, for time histograms). Observe is entirely atomic — no mutex —
// so the daemon's event loop can record per-event distributions (queue
// wait, admission wait, drain latency) without ever contending with
// scrapes or other goroutines.
type Histogram struct {
	bounds  []float64       // upper bucket bounds, ascending; +Inf implicit; immutable
	counts  []atomic.Uint64 // per-bucket (non-cumulative) counts; len(bounds)+1
	sumBits atomic.Uint64   // float64 bits of the running sum, CAS-updated
	samples atomic.Uint64
}

// Observe records one sample. Lock-free: the total-sample count is bumped
// before the bucket so a concurrent scrape never renders a finite bucket
// above the +Inf line (cumulative buckets stay monotone mid-flight; the
// counts reconcile exactly once writers are at rest).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.samples.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			break
		}
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
}

// ObserveDuration records d in seconds. An absent instrument costs its
// caller the nil check and not the conversion, which is two 64-bit divides.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.samples.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus the
// +Inf bucket, and the sum/count pair. The fields are read individually —
// a snapshot taken while writers are active may be a few observations
// out of sync across buckets, but is exact at rest (the state every
// reconciliation test scrapes in).
func (h *Histogram) snapshot() (bounds []float64, cumulative []uint64, sum float64, count uint64) {
	cumulative = make([]uint64, len(h.counts))
	acc := uint64(0)
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return h.bounds, cumulative, h.Sum(), h.Count()
}

// DurationBuckets is the default bucket layout for virtual-time
// histograms: exponential powers of ~3.16 (half a decade) from 1µs to
// ~31.6s, covering drain latencies through epoch lengths.
func DurationBuckets() []float64 {
	out := make([]float64, 0, 16)
	for v := 1e-6; v < 32; v *= math.Sqrt(10) {
		out = append(out, v)
	}
	return out
}

// metricKind discriminates exposition TYPE lines.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindHistogram:
		return "histogram"
	case kindCounter:
		return "counter"
	default:
		return "gauge"
	}
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels string // rendered {k="v",...} or ""

	counter   *Counter
	gauge     *Gauge
	gaugeFunc func() float64
	hist      *Histogram
}

// Registry holds registered instruments and renders them as Prometheus
// text. Registration is idempotent: asking for the same (name, labels)
// twice returns the same instrument. The zero value is NOT usable; call
// NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	index   map[string]*metric // name + labels → metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*metric{}}
}

// renderLabels turns ("mode", "temporal", "sm", "3") pairs into a
// deterministic {mode="temporal",sm="3"} string.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs %v", pairs))
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// register finds or creates the (name, labels) metric. A kind clash on an
// existing name is a programming error and panics.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *metric {
	if r == nil {
		return nil
	}
	ls := renderLabels(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.index[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: %s re-registered as %v (was %v)", key, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: ls}
	r.metrics = append(r.metrics, m)
	r.index[key] = m
	return m
}

// Counter registers (or finds) a counter. Optional label pairs
// ("key", "value", ...) distinguish family members.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounter, labels)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindGauge, labels)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time. fn must be safe to call from the scraping goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	m := r.register(name, help, kindGaugeFunc, labels)
	m.gaugeFunc = fn
}

// Histogram registers (or finds) a histogram over the bucket bounds
// (ascending upper bounds; nil = DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindHistogram, labels)
	if m.hist == nil {
		if bounds == nil {
			bounds = DurationBuckets()
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %s bounds not ascending at %d", name, i))
			}
		}
		m.hist = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return m.hist
}

// formatFloat renders a sample value the way Prometheus expects:
// integers without a decimal point, +Inf spelled out.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), grouped by family with one
// HELP/TYPE header each. Several registries go into one exposition, told
// apart by a label, through an Exposition.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	sort.SliceStable(metrics, func(i, j int) bool {
		if metrics[i].name != metrics[j].name {
			return metrics[i].name < metrics[j].name
		}
		return metrics[i].labels < metrics[j].labels
	})

	lastFamily := ""
	for _, m := range metrics {
		if m.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				m.name, m.help, m.name, m.kind); err != nil {
				return err
			}
			lastFamily = m.name
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, m.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatFloat(m.gauge.Value()))
		case kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatFloat(m.gaugeFunc()))
		case kindHistogram:
			err = writeHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram's bucket/sum/count series, the le
// label after the histogram's own.
func writeHistogram(w io.Writer, m *metric) error {
	bounds, cumulative, sum, count := m.hist.snapshot()
	inner := strings.TrimSuffix(strings.TrimPrefix(m.labels, "{"), "}")
	if inner != "" {
		inner += ","
	}
	for i, b := range bounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", m.name, inner, formatFloat(b), cumulative[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", m.name, inner, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", m.name, m.labels, sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, count)
	return err
}
