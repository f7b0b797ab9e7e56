package server

import (
	"context"
	"net/http"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"flep/internal/kernels"
)

// newBenchServer starts a daemon for microbenchmarks (no HTTP listener:
// these measure the in-process admission path, not Go's HTTP stack).
func newBenchServer(b testing.TB) *Server {
	b.Helper()
	s, err := NewWithSystem(testSystem(b), Config{Benchmarks: []string{"VA", "MM"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// launchRoundTrip is one launch through the admission path without HTTP:
// pool get, atomic admission gate, channel enqueue, batched loop
// admission, simulated execution, terminal delivery, pool put.
func launchRoundTrip(tb testing.TB, s *Server, bench *kernels.Benchmark) {
	q := getLaunchReq()
	q.client, q.Bench, q.Class = "bench", bench, kernels.Trivial
	q.Priority = 1
	q.enqueuedReal = time.Now()
	if err := s.tryEnqueue(q); err != nil {
		tb.Fatal(err)
	}
	if res := <-q.done; res.Err != "" {
		tb.Fatal(res.Err)
	}
	putLaunchReq(q)
}

// BenchmarkLaunchRoundTrip times the admission path;
// TestAllocationBudget gates its allocations.
func BenchmarkLaunchRoundTrip(b *testing.B) {
	s := newBenchServer(b)
	bench := s.benches["VA"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		launchRoundTrip(b, s, bench)
	}
}

// BenchmarkLaunchRoundTripParallel drives the same path from many
// goroutines: contention on the admission gate, the submit channel, and
// the completion counters is the figure of merit.
func BenchmarkLaunchRoundTripParallel(b *testing.B) {
	s := newBenchServer(b)
	bench := s.benches["VA"]
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			launchRoundTrip(b, s, bench)
		}
	})
}

// discardResponseWriter is a header-only ResponseWriter: WriteJSON's own
// cost (pooled encoder, buffer reuse) is what is being measured.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// benchResult is a representative hot response body.
var benchResult = &LaunchResult{
	ID: 42, Client: "bench", Kernel: "VA", Class: "trivial", Priority: 1,
	SubmittedVirtualNS: 123456, FinishedVirtualNS: 654321,
	TurnaroundNS: 530865, WaitingNS: 1000, ExecutionNS: 529865,
	NTT: 1.25, QueueWaitRealNS: 1500,
}

// BenchmarkWriteJSONLaunchResult measures serializing the hot response
// body into the pooled buffer.
func BenchmarkWriteJSONLaunchResult(b *testing.B) {
	w := &discardResponseWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteJSON(w, http.StatusOK, benchResult)
	}
}

// BenchmarkWriteJSONAPIError measures the refusal every retried 429 of an
// overloaded daemon answers with.
func BenchmarkWriteJSONAPIError(b *testing.B) {
	w := &discardResponseWriter{h: http.Header{}}
	refusal := APIError{ErrQueueFull.Error()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteJSON(w, http.StatusTooManyRequests, refusal)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" {
				return kv.Value == "true"
			}
		}
	}
	return false
}

// TestAllocationBudget gates the steady-state allocations of the launch
// hot path. The launchReq and encoder pools are what keep these figures
// flat, and a pooled object that stops coming back shows up here and
// nowhere else: a launchReq that is not returned costs 3 allocations per
// launch, an encoder 9. The ceilings are the measured steady state. An
// admission's four are the Invocation (which owns the gpu.Exec its one
// dispatch starts into), the two device callbacks the runtime binds to it,
// and the loop's OnFinish closure; the handler adds net/http's request and
// the JSON decode of its body on top, and WriteJSON adds nothing: the result
// appends itself into the pooled buffer and the Content-Type value is one
// shared slice. The trivial launch's three engine events are recycled typed
// records and contribute nothing, so an event scheduled as a closure, or an
// Exec allocated per dispatch again, shows up here too.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("race instrumentation allocates")
	}
	s := newBenchServer(t)
	bench := s.benches["VA"]
	h := s.Handler()
	w := &discardResponseWriter{h: http.Header{}}
	const body = `{"client":"bench","benchmark":"VA","class":"trivial"}`
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"POST /v1/launch through the handler", 25, func() {
			r, err := http.NewRequest(http.MethodPost, "/v1/launch", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			h.ServeHTTP(w, r)
		}},
		{"admission round trip", 4, func() { launchRoundTrip(t, s, bench) }},
		{"WriteJSON launch result", 0, func() { WriteJSON(w, http.StatusOK, benchResult) }},
	} {
		for i := 0; i < 50; i++ {
			tc.run() // fill the pools
		}
		if got := testing.AllocsPerRun(1000, tc.run); got > tc.ceiling {
			t.Errorf("%s: %v allocs per run, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
