package perf

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names: one per layer boundary the harness can reach from outside
// the program. A launch's spans nest client → transport → [cluster →
// cluster.backend →] server → server.admission.
const (
	SpanClient    = "client"           // one whole operation in the generator
	SpanTransport = "transport"        // http.RoundTripper round trip, client → first hop
	SpanCluster   = "cluster"          // cluster.Gateway.Handler()
	SpanBackend   = "cluster.backend"  // gateway → node round trip (cluster.Config.Client)
	SpanServer    = "server"           // server.Server.Handler()
	SpanAdmission = "server.admission" // queue_wait_real_ns from the LaunchResult
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent names the span of
// the same launch that caused it ("" for the root); Launch is shared by
// every span of one operation.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	Launch uint64 `json:"launch"`
}

// Recorder keeps spans in memory until the benchmark ends. It is safe
// for concurrent use: handler middleware, round trippers and client
// goroutines all record into one.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder with room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, capacity)}
}

// Now returns nanoseconds since the recorder's epoch.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// Add records one finished span.
func (r *Recorder) Add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONL writes the spans one JSON object per line, creating the
// file's directory if needed.
func (r *Recorder) WriteJSONL(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// LaunchTimes is the per-launch view of a trace: each span name's
// duration and self time (duration minus the part its child spans
// cover) for one launch.
type LaunchTimes struct {
	Launch uint64
	Dur    map[string]int64
	Self   map[string]int64
}

// SelfTimes groups spans by launch and computes every span's self time.
// Children are matched by Parent name within the launch; a child is
// clipped to its parent's interval so a clock skew or a synthesized span
// can never make a self time negative.
func SelfTimes(spans []Span) []LaunchTimes {
	byLaunch := map[uint64][]Span{}
	for _, s := range spans {
		byLaunch[s.Launch] = append(byLaunch[s.Launch], s)
	}
	ids := make([]uint64, 0, len(byLaunch))
	for id := range byLaunch {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]LaunchTimes, 0, len(ids))
	for _, id := range ids {
		group := byLaunch[id]
		lt := LaunchTimes{Launch: id, Dur: map[string]int64{}, Self: map[string]int64{}}
		for _, s := range group {
			dur := s.End - s.Start
			covered := int64(0)
			for _, c := range group {
				if c.Parent != s.Name {
					continue
				}
				lo, hi := c.Start, c.End
				if lo < s.Start {
					lo = s.Start
				}
				if hi > s.End {
					hi = s.End
				}
				if hi > lo {
					covered += hi - lo
				}
			}
			lt.Dur[s.Name] += dur
			lt.Self[s.Name] += dur - covered
		}
		out = append(out, lt)
	}
	return out
}

// medianOf returns the median over launches of pick(launch), in
// microseconds, counting only launches for which ok is true.
func medianOf(lts []LaunchTimes, pick func(LaunchTimes) (int64, bool)) float64 {
	var vs []float64
	for _, lt := range lts {
		if v, ok := pick(lt); ok {
			vs = append(vs, float64(v)/1e3)
		}
	}
	if len(vs) == 0 {
		return 0
	}
	return Median(vs)
}
