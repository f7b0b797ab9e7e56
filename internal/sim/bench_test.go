package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineScheduleStep is the engine's steady-state cost per event:
// one Schedule and one Step against a queue held 1,024 deep.
func BenchmarkEngineScheduleStep(b *testing.B) {
	const depth = 1024
	nop := func() {}
	eng := New()
	for i := 0; i < depth; i++ {
		eng.Schedule(time.Duration(i+1)*time.Microsecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(depth*time.Microsecond, nop)
		eng.Step()
	}
}

// BenchmarkEngineScheduleCancel is the cost of arming and cancelling a
// timer that never fires, against the same 1,024-deep queue.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	const depth = 1024
	nop := func() {}
	eng := New()
	for i := 0; i < depth; i++ {
		eng.Schedule(time.Duration(i+1)*time.Microsecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Hour, nop).Cancel()
	}
}
