package flepruntime

import (
	"testing"
	"time"

	"flep/internal/sim"
)

// rotationFixture is n weighted FFS tenants, each with one kernel far
// longer than any epoch, on a runtime with no trace log: the steady state
// is one rotation after another. rotate steps the engine through exactly
// one of them: epoch expiry, preempt, drain, redispatch of the next tenant,
// residency.
type rotationFixture struct {
	eng    *sim.Engine
	drains int
}

func newRotationFixture(tb testing.TB, n int) *rotationFixture {
	ffs := NewFFS(0.10)
	eng, rt := newRT(ffs, false)
	fx := &rotationFixture{eng: eng}
	rt.cfg.OnPreemptDrained = func(*Invocation, time.Duration) { fx.drains++ }
	for i := range n {
		name := string(rune('a' + i))
		v := inv(name, 1+i%2, 1<<40, us(10), 4)
		ffs.SetKernelWeight(name, float64(1+i%2))
		if err := rt.Submit(v); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 2*n; i++ {
		fx.rotate(tb) // past the first round: every tenant has been seen
	}
	return fx
}

func (fx *rotationFixture) rotate(tb testing.TB) {
	for want := fx.drains + 1; fx.drains < want; {
		if !fx.eng.Step() {
			tb.Fatal("engine went idle mid-rotation")
		}
	}
}

// BenchmarkFFSRotation4Tenants is the cost of one FFS rotation (§5.2.2:
// one drain plus one relaunch) through runtime, policy, device and engine.
func BenchmarkFFSRotation4Tenants(b *testing.B) { benchmarkFFSRotation(b, 4) }

// BenchmarkFFSRotation16Tenants is the same rotation among sixteen tenants.
// FFS recomputes its epoch base only when a term of the sum changes, so its
// share of a rotation does not grow with the tenant count; what still grows
// is the runtime's waiting queue (fifteen invocations here, three among
// four).
func BenchmarkFFSRotation16Tenants(b *testing.B) { benchmarkFFSRotation(b, 16) }

func benchmarkFFSRotation(b *testing.B, tenants int) {
	fx := newRotationFixture(b, tenants)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.rotate(b)
	}
}

// TestRotationAllocationBudget pins what one FFS rotation allocates with no
// trace log attached: nothing. The redispatch starts into the gpu.Exec the
// invocation owns; the five engine events it schedules (epoch timer, drain,
// drained hop, relaunch, device wake) are typed records the engine recycles,
// handled by the policy, the execution and the device themselves (gpu's
// TestPreemptResumeAllocationBudget is the device's share). An Exec
// allocated per dispatch, a closure scheduled per event, a trace line
// formatted for a nil log or a callback rebound per redispatch shows up
// here.
func TestRotationAllocationBudget(t *testing.T) {
	fx := newRotationFixture(t, 4)
	if got := testing.AllocsPerRun(500, func() { fx.rotate(t) }); got > 0 {
		t.Errorf("one FFS rotation allocates %v times, want none", got)
	}
}

// TestFFSEpochDeterministicWithFractionalWeights: the epoch length is
// ΣO/(max_overhead·ΣW) truncated to a Duration, and ΣW was summed in Go map
// iteration order — with weights 0.1/0.2/0.3 the sum differs in its last
// bit between orders, the epoch by a nanosecond, and a recorded run no
// longer replays byte-identically. Tenants are now summed in name order.
func TestFFSEpochDeterministicWithFractionalWeights(t *testing.T) {
	type outcome struct {
		epoch    time.Duration
		finished [3]time.Duration
	}
	run := func() outcome {
		ffs := NewFFS(0.10)
		eng, rt := newRT(ffs, false)
		var out outcome
		for i, name := range []string{"a", "b", "c"} {
			ffs.SetKernelWeight(name, float64(i+1)/10)
			v := inv(name, 1, 24000+7000*i, us(10), 4+i)
			v.OnFinish = func(fv *Invocation) { out.finished[i] = fv.FinishedAt() }
			if err := rt.Submit(v); err != nil {
				t.Fatal(err)
			}
		}
		// All three tenants are present and have run by now, so the epoch
		// in force was sized from all three weights.
		eng.At(us(1500), func() { out.epoch = ffs.lastEpochLen })
		eng.Run()
		return out
	}
	first := run()
	if first.epoch == 0 || first.finished[2] == 0 {
		t.Fatalf("scenario did not run: %+v", first)
	}
	for i := 1; i < 200; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged from run 0:\n got %+v\nwant %+v", i, got, first)
		}
	}
}
