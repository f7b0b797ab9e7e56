package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"flep/internal/kernels"
)

// newBenchServer starts a daemon for microbenchmarks (no HTTP listener:
// these measure the in-process admission path, not Go's HTTP stack).
func newBenchServer(b *testing.B) *Server {
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

// BenchmarkLaunchRoundTrip is the per-launch allocation budget: pool
// get, atomic admission gate, channel enqueue, batched loop admission,
// simulated execution, terminal delivery, pool put. flepperf's
// server.inproc_allocs_per_launch probe (bench/README.md) measures the
// same budget through the HTTP handler.
func BenchmarkLaunchRoundTrip(b *testing.B) {
	s := newBenchServer(b)
	bench := s.benches["VA"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := getLaunchReq()
		q.client, q.bench, q.class = "bench", bench, kernels.Trivial
		q.priority = 1
		q.enqueuedReal = time.Now()
		if err := s.tryEnqueue(q); err != nil {
			b.Fatal(err)
		}
		if res := <-q.done; res.Err != "" {
			b.Fatal(res.Err)
		}
		putLaunchReq(q)
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
			q := getLaunchReq()
			q.client, q.bench, q.class = "bench", bench, kernels.Trivial
			q.priority = 1
			q.enqueuedReal = time.Now()
			if err := s.tryEnqueue(q); err != nil {
				b.Fatal(err)
			}
			if res := <-q.done; res.Err != "" {
				b.Fatal(res.Err)
			}
			putLaunchReq(q)
		}
	})
}

// discardResponseWriter is a header-only ResponseWriter: WriteJSON's own
// cost (pooled encoder, buffer reuse) is what is being measured.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header         { return d.h }
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// BenchmarkWriteJSONLaunchResult measures serializing the hot response
// body on the pooled encoder path.
func BenchmarkWriteJSONLaunchResult(b *testing.B) {
	w := &discardResponseWriter{h: http.Header{}}
	res := &LaunchResult{
		ID: 42, Client: "bench", Kernel: "VA", Class: "trivial", Priority: 1,
		SubmittedVirtualNS: 123456, FinishedVirtualNS: 654321,
		TurnaroundNS: 530865, WaitingNS: 1000, ExecutionNS: 529865,
		NTT: 1.25, QueueWaitRealNS: 1500,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteJSON(w, http.StatusOK, res)
	}
}
