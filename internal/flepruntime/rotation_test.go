package flepruntime

import (
	"testing"
	"time"

	"flep/internal/sim"
)

// rotationFixture is four weighted FFS tenants, each with one kernel far
// longer than any epoch, on a runtime with no trace log: the steady state
// is one rotation after another. rotate steps the engine through exactly
// one of them — epoch expiry, preempt, drain, redispatch of the next
// tenant, residency — and returns the number of engine events it took.
type rotationFixture struct {
	eng    *sim.Engine
	drains int
}

func newRotationFixture(tb testing.TB) *rotationFixture {
	eng, rt := newRT(NewFFS(0.10), false)
	fx := &rotationFixture{eng: eng}
	rt.cfg.OnPreemptDrained = func(*Invocation, time.Duration) { fx.drains++ }
	for i, name := range []string{"a", "b", "c", "d"} {
		v := inv(name, 1+i%2, 1<<40, us(10), 4)
		rt.cfg.Policy.(*FFS).SetKernelWeight(name, float64(1+i%2))
		if err := rt.Submit(v); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		fx.rotate(tb) // past the first round: every tenant has been seen
	}
	return fx
}

func (fx *rotationFixture) rotate(tb testing.TB) (events int) {
	for want := fx.drains + 1; fx.drains < want; events++ {
		if !fx.eng.Step() {
			tb.Fatal("engine went idle mid-rotation")
		}
	}
	return events
}

// BenchmarkFFSRotation4Tenants is the cost of one FFS rotation (§5.2.2:
// one drain plus one relaunch) through runtime, policy, device and engine.
func BenchmarkFFSRotation4Tenants(b *testing.B) {
	fx := newRotationFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.rotate(b)
	}
}
