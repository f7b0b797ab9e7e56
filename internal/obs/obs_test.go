package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(1)
	h.Observe(3)
	h.ObserveDuration(3 * time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var r *Registry
	if r.Counter("x", "h") != nil || r.Gauge("x", "h") != nil || r.Histogram("x", "h", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.GaugeFunc("x", "h", func() float64 { return 1 })
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flep_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// A duration is observed as its seconds.
	hd := r.Histogram("flep_test_seconds", "test histogram", nil)
	hd.ObserveDuration(1500 * time.Millisecond)
	if hd.Count() != 1 || hd.Sum() != 1.5 {
		t.Fatalf("histogram = %d observations summing to %g", hd.Count(), hd.Sum())
	}
	// Idempotent registration returns the same instrument.
	if r.Counter("flep_test_total", "test counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("flep_test_gauge", "test gauge")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %g", g.Value())
	}
	// Set skips the store when the value is unchanged; every sequence of
	// repeats and changes still reads back the last value set, zero and its
	// negative (equal as floats, different bits) included.
	for _, v := range []float64{1.5, 1.5, 0, 0, math.Copysign(0, -1), 7, 7, 1.5} {
		g.Set(v)
		if got := g.Value(); got != v || math.Signbit(got) != math.Signbit(v) {
			t.Fatalf("gauge = %g after Set(%g)", got, v)
		}
	}
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("flep_preemptions_total", "preemptions", "mode", "temporal")
	b := r.Counter("flep_preemptions_total", "preemptions", "mode", "spatial")
	if a == b {
		t.Fatal("distinct labels must get distinct counters")
	}
	a.Add(3)
	b.Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Count(text, "# TYPE flep_preemptions_total counter") != 1 {
		t.Fatalf("family header not emitted exactly once:\n%s", text)
	}
	for _, want := range []string{
		`flep_preemptions_total{mode="temporal"} 3`,
		`flep_preemptions_total{mode="spatial"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flep_lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-0.5555) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`flep_lat_seconds_bucket{le="0.001"} 1`,
		`flep_lat_seconds_bucket{le="0.01"} 2`,
		`flep_lat_seconds_bucket{le="0.1"} 3`,
		`flep_lat_seconds_bucket{le="+Inf"} 4`,
		`flep_lat_seconds_count 4`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
}

func TestGaugeFuncEvaluatedAtScrape(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("flep_depth", "depth", func() float64 { return v })
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "flep_depth 1") {
		t.Fatalf("scrape 1:\n%s", buf.String())
	}
	v = 7
	buf.Reset()
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "flep_depth 7") {
		t.Fatalf("scrape 2:\n%s", buf.String())
	}
}

func TestDurationBucketsAscending(t *testing.T) {
	b := DurationBuckets()
	if len(b) < 10 {
		t.Fatalf("too few buckets: %v", b)
	}
	if b[0] > 1e-6 || b[len(b)-1] < 10 {
		t.Fatalf("bucket range [%g, %g] does not cover 1µs..10s", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("flep_a_total", "a").Add(12)
	r.Counter("flep_b_total", "b", "mode", "x").Add(3)
	r.Counter("flep_b_total", "b", "mode", "y").Add(4)
	r.Gauge("flep_g", "g").Set(2.25)
	h := r.Histogram("flep_h_seconds", "h", []float64{0.01})
	h.Observe(0.005)
	h.Observe(1)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, buf.String())
	}
	if v, _ := snap.Get("flep_a_total"); v != 12 {
		t.Fatalf("a = %g", v)
	}
	if snap.SumFamily("flep_b_total") != 7 {
		t.Fatalf("b family sum = %g", snap.SumFamily("flep_b_total"))
	}
	if v, _ := snap.Get("flep_g"); v != 2.25 {
		t.Fatalf("g = %g", v)
	}
	if v, _ := snap.Get(`flep_h_seconds_bucket{le="+Inf"}`); v != 2 {
		t.Fatalf("+Inf bucket = %g", v)
	}
	if v, _ := snap.Get("flep_h_seconds_count"); v != 2 {
		t.Fatalf("count = %g", v)
	}
	if Delta(Snapshot{"flep_a_total": 2}, snap, "flep_a_total") != 10 {
		t.Fatal("delta arithmetic broken")
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"nonsense", "x{unterminated 3", "x notanumber"} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseText accepted %q", bad)
		}
	}
}

func TestConcurrentScrapeAndUpdate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("flep_c_total", "c")
	h := r.Histogram("flep_h_seconds", "h", nil)
	g := r.Gauge("flep_g", "g")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			g.Set(float64(i))
			h.Observe(float64(i%10) / 1000)
		}
	}()
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
