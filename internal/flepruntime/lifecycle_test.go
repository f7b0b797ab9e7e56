package flepruntime

import (
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/obs"
	"flep/internal/sim"
)

// newInstrumentedRT builds a runtime whose metrics are wired to a live
// registry, so tests can assert on counter values.
func newInstrumentedRT(policy Policy, spatial bool) (*sim.Engine, *Runtime) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	rt := New(dev, Config{
		Policy:        policy,
		EnableSpatial: spatial,
		Metrics:       NewMetrics(obs.NewRegistry()),
	})
	return eng, rt
}

// closedLoop builds a client that resubmits a fresh invocation on every
// completion until *stop is set. Returns the kick-off function.
func closedLoop(rt *Runtime, name string, prio, tasks int, cost time.Duration, stop *bool) func() {
	var submit func()
	submit = func() {
		v := inv(name, prio, tasks, cost, 2)
		v.OnFinish = func(*Invocation) {
			if !*stop {
				submit()
			}
		}
		rt.Submit(v)
	}
	return submit
}

// TestFFSEvictsDepartedTenant is the regression test for the unbounded
// seen-map growth: once a tenant's last invocation completes, its entry
// must leave the overhead table and the epoch length must return to the
// remaining tenant's solo baseline instead of staying inflated by the
// departed tenant's ΣO_i contribution forever.
func TestFFSEvictsDepartedTenant(t *testing.T) {
	ffs := NewFFS(0.10)
	eng, rt := newInstrumentedRT(ffs, false)

	// a weighs 1, b weighs 3 (priority = weight for FFS), so the
	// two-tenant epoch for a — (O_a+O_b)/(0.10·4) — differs from a's solo
	// epoch O_a/0.10. Equal overheads would make the two coincide.
	var stopA, stopB bool
	closedLoop(rt, "a", 1, 2400, us(100), &stopA)()
	closedLoop(rt, "b", 3, 2400, us(100), &stopB)()

	eng.Schedule(50*time.Millisecond, func() { stopB = true })
	eng.RunUntil(200 * time.Millisecond)
	stopA = true
	eng.Run()

	if rt.met.Evictions.Value() < 1 {
		t.Fatal("departed tenant was never evicted from the overhead table")
	}
	if len(ffs.tenants) != 0 {
		t.Fatalf("seen retains %d kernels after all tenants departed", len(ffs.tenants))
	}

	// The last epoch opened while a ran alone: exactly a's solo epoch
	// O_a/maxOverhead (weight 1), not the smaller two-tenant epoch.
	o := rt.OverheadFor(inv("a", 1, 2400, us(100), 2))
	solo := time.Duration(float64(o) / 0.10)
	got := ffs.lastEpochLen
	if diff := got - solo; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("post-departure epoch = %v, want solo baseline %v (two-tenant was %v)",
			got, solo, time.Duration(float64(2*o)/(0.10*4)))
	}
}

// TestFFSCancelsStaleEpochTimer is the regression test for dead-event
// accretion: when an epoch closes before its timer fires (here: the
// owner departs mid-epoch), the superseded timer must be canceled rather
// than left to sit in the engine's queue until its deadline.
func TestFFSCancelsStaleEpochTimer(t *testing.T) {
	ffs := NewFFS(0.05) // tight budget → epoch ≈ 20·O ≈ 3.3ms, longer than a
	eng, rt := newInstrumentedRT(ffs, false)

	a := inv("a", 1, 2400, us(100), 2) // 2ms, completes inside its epoch
	rt.Submit(a)
	eng.Schedule(us(1000), func() { rt.Submit(inv("b", 1, 1200, us(100), 2)) })
	eng.Run()

	if rt.met.TimersCanceled.Value() < 1 {
		t.Fatal("stale epoch timer was never canceled")
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("engine still reports %d pending events at quiescence", got)
	}
	if rt.met.EpochsOpened.Value() < 2 {
		t.Fatalf("epochs opened = %d, want one per tenant", rt.met.EpochsOpened.Value())
	}
}

// TestSpatialGuestDoesNotStallQueue is the regression test for the
// spatial-guest idle stall: when the primary completes while a guest
// still holds the low SMs, the next queued invocation must dispatch on
// the free high range instead of idling the whole device until the guest
// departs.
func TestSpatialGuestDoesNotStallQueue(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), true)

	low := inv("low", 1, 2400, us(100), 2)  // 2ms primary
	tiny := inv("tiny", 2, 40, us(5000), 1) // 5-SM guest, runs ~5ms
	third := inv("third", 1, 1200, us(100), 2)

	var tinyDone, thirdDone time.Duration
	tiny.OnFinish = func(*Invocation) { tinyDone = eng.Now() }
	third.OnFinish = func(*Invocation) { thirdDone = eng.Now() }

	rt.Submit(low)
	eng.Schedule(us(1000), func() { rt.Submit(tiny) })
	eng.Schedule(us(1500), func() { rt.Submit(third) })
	eng.Run()

	if rt.met.SpatialPreempts.Value() != 1 || rt.met.GuestDispatches.Value() != 1 {
		t.Fatalf("scenario did not take the spatial path: spatial=%d guests=%d",
			rt.met.SpatialPreempts.Value(), rt.met.GuestDispatches.Value())
	}
	if tinyDone == 0 || thirdDone == 0 {
		t.Fatal("kernels did not finish")
	}
	// low finishes ≈2.7ms; the long-running guest finishes ≈6ms. If the
	// scheduler stalls behind the guest, third cannot finish before it.
	if thirdDone >= tinyDone {
		t.Fatalf("third finished at %v, after the guest at %v: queue stalled behind the spatial guest",
			thirdDone, tinyDone)
	}
}

// TestPreemptAbortLeavesQueueConsistent drives schedule() in the window
// between an execution finishing on the device and the runtime's
// onComplete callback (the device emits EvComplete synchronously, then
// delivers OnComplete via a zero-delay event). A preemption decided in
// that window hits preemptFor's error branch; the candidate must stay
// queued exactly once and still run to completion.
func TestPreemptAbortLeavesQueueConsistent(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), false)

	a := inv("a", 1, 1200, us(100), 2)
	high := inv("high", 2, 1200, us(100), 2)
	finishes := 0
	high.OnFinish = func(*Invocation) { finishes++ }

	rt.Device().Observer = func(ev gpu.Event) {
		if ev.Kind == gpu.EvComplete && ev.Kernel == "a" {
			rt.Device().Observer = nil
			rt.Submit(high) // schedule() sees the stale running invocation
		}
	}
	rt.Submit(a)
	eng.Run()

	if rt.met.PreemptAborts.Value() != 1 {
		t.Fatalf("preempt aborts = %d, want 1", rt.met.PreemptAborts.Value())
	}
	if finishes != 1 {
		t.Fatalf("high finished %d times, want exactly 1", finishes)
	}
	if rt.met.TemporalPreempts.Value()+rt.met.SpatialPreempts.Value() != 0 {
		t.Fatal("aborted preemption was counted as realized")
	}
}

// TestPreemptAbortReenqueuesPendingGuestOnce is the spatial variant of
// the abort race: preemptFor had already dequeued the guest-to-be when
// Preempt failed, so the error branch must put it back exactly once.
func TestPreemptAbortReenqueuesPendingGuestOnce(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), true)

	a := inv("a", 1, 1200, us(100), 2)
	tiny := inv("tiny", 2, 40, us(80), 1) // small enough for spatial
	finishes := 0
	tiny.OnFinish = func(*Invocation) { finishes++ }

	rt.Device().Observer = func(ev gpu.Event) {
		if ev.Kind == gpu.EvComplete && ev.Kernel == "a" {
			rt.Device().Observer = nil
			rt.Submit(tiny)
		}
	}
	rt.Submit(a)
	eng.Run()

	if rt.met.PreemptAborts.Value() != 1 {
		t.Fatalf("preempt aborts = %d, want 1", rt.met.PreemptAborts.Value())
	}
	if finishes != 1 {
		t.Fatalf("tiny finished %d times, want exactly 1", finishes)
	}
	if rt.pendingGuest != nil {
		t.Fatal("pendingGuest leaked after the aborted spatial preemption")
	}
}

// TestVictimCompletesDuringDrain covers the other race direction: the
// preemption flag is up and the drain is in flight when the victim runs
// out of tasks. The device resolves the drain with remaining=0; the
// runtime must not count a realized preemption, and the pending guest
// must be re-enqueued exactly once and still run.
func TestVictimCompletesDuringDrain(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), true)

	// L=40 stretches the drain to ≈2ms — far past the victim's ≈100us of
	// remaining work when the preemption lands at 1.9ms.
	victim := inv("victim", 1, 2400, us(100), 40)
	tiny := inv("tiny", 2, 40, us(80), 1)
	finishes := 0
	tiny.OnFinish = func(*Invocation) { finishes++ }

	rt.Submit(victim)
	eng.Schedule(us(1900), func() { rt.Submit(tiny) })
	eng.Run()

	if victim.State() != InvFinished || finishes != 1 {
		t.Fatalf("victim=%v tiny finishes=%d", victim.State(), finishes)
	}
	if victim.Preemptions != 0 {
		t.Fatalf("victim.Preemptions = %d: drain that resolved by completion was counted", victim.Preemptions)
	}
	if n := rt.met.TemporalPreempts.Value() + rt.met.SpatialPreempts.Value(); n != 0 {
		t.Fatalf("realized preemptions = %d, want 0", n)
	}
	if rt.met.DrainLatency.Count() != 0 {
		t.Fatal("drain latency observed for a drain that never completed")
	}
	if rt.pendingGuest != nil {
		t.Fatal("pendingGuest leaked")
	}
}

// TestFFSSoakEpochRotationsBounded soaks FFS through hundreds of epoch
// rotations with two closed-loop tenants, then retires one and checks
// the long-lived invariants: the overhead table tracks only present
// tenants, the engine's pending-event count stays bounded (no dead-timer
// accretion), and the epoch length settles back to the survivor's solo
// baseline.
func TestFFSSoakEpochRotationsBounded(t *testing.T) {
	ffs := NewFFS(0.10)
	eng, rt := newInstrumentedRT(ffs, false)

	var stopA, stopB bool
	closedLoop(rt, "a", 1, 2400, us(100), &stopA)()
	closedLoop(rt, "b", 3, 2400, us(100), &stopB)()

	var midPending int
	var midSeen int
	eng.Schedule(400*time.Millisecond, func() {
		midPending = eng.Pending()
		midSeen = len(ffs.tenants)
		stopB = true
	})
	eng.RunUntil(600 * time.Millisecond)

	rotations := rt.met.EpochsOpened.Value()
	if rotations < 200 {
		t.Fatalf("epoch rotations = %d, want ≥ 200", rotations)
	}
	if midPending > 64 {
		t.Fatalf("pending events mid-soak = %d: dead timers accreting", midPending)
	}
	if midSeen > 2 {
		t.Fatalf("overhead table mid-soak tracks %d kernels, want ≤ 2", midSeen)
	}
	if len(ffs.tenants) != 1 {
		t.Fatalf("overhead table tracks %d kernels after b departed, want 1", len(ffs.tenants))
	}
	o := rt.OverheadFor(inv("a", 1, 2400, us(100), 2))
	solo := time.Duration(float64(o) / 0.10)
	if diff := ffs.lastEpochLen - solo; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("post-departure epoch = %v, want solo baseline %v", ffs.lastEpochLen, solo)
	}

	stopA = true
	eng.Run()
	if got := eng.Pending(); got != 0 {
		t.Fatalf("pending events at quiescence = %d", got)
	}
}
