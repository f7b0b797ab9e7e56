package flepruntime

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"flep/internal/sim"
)

// TestOverheadForMatchesRealizedDrain pins the drain model's residual-batch
// term against the device: a worker polls the preemption flag once per
// L-task batch, so a uniformly-positioned drain owes (L-1)/2 tasks on
// average, not (L+1)/2. Predicted (OverheadFor minus the 2×LaunchLatency
// relaunch term the realized drain does not include) and realized drain
// latency must agree within half a task cost — the old off-by-one missed
// by a full task cost per drain.
func TestOverheadForMatchesRealizedDrain(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), false)

	const L = 20
	cost := us(100)
	victim := inv("victim", 1, 12000, cost, L)
	rt.Submit(victim)
	predicted := rt.OverheadFor(victim)

	// A strictly higher priority arrival forces a temporal preemption
	// mid-run; DrainLatency then records the realized flag-to-stop time.
	eng.Schedule(us(3000), func() { rt.Submit(inv("hi", 5, 1200, cost, L)) })
	eng.RunUntil(8 * time.Millisecond)

	if n := rt.met.DrainLatency.Count(); n != 1 {
		t.Fatalf("drains = %d, want exactly 1", n)
	}
	realized := time.Duration(rt.met.DrainLatency.Sum() * float64(time.Second))
	// The estimate budgets stop + relaunch; the drain metric measures only
	// the stop side.
	predDrain := predicted - 2*rt.Device().Params().LaunchLatency
	diff := predDrain - realized
	if diff < 0 {
		diff = -diff
	}
	if diff >= cost/2 {
		t.Fatalf("predicted drain %v vs realized %v: off by %v (≥ half a task cost %v — residual-batch term wrong)",
			predDrain, realized, diff, cost/2)
	}
}

// TestHPFEnqueueMatchesStableSort checks the runtime's binary-insert enqueue
// against the reference ordering under every policy: inserting each arrival
// after the queued invocations it is not strictly ahead of is one stable
// sort of the arrival order by the policy's Before — for HPF (priority
// desc, Tr asc), FIFO-stable among equal keys, exactly what the old
// per-insert sort.SliceStable produced.
func TestHPFEnqueueMatchesStableSort(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			pol, err := NewPolicy(name, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, rt := newRT(pol, false)
			rng := rand.New(rand.NewSource(7))
			var ref []*Invocation
			for i := 0; i < 600; i++ {
				if len(ref) > 0 && rng.Intn(5) == 0 {
					// Mid-queue removal keeps dequeue honest too.
					j := rng.Intn(len(ref))
					rt.dequeue(ref[j])
					ref = append(ref[:j], ref[j+1:]...)
					continue
				}
				v := &Invocation{
					Kernel:   fmt.Sprintf("k%d", i),
					Priority: rng.Intn(4),
					Tr:       time.Duration(rng.Intn(5)) * time.Microsecond,
					// Half best-effort, half on one of four tied deadlines.
					Deadline: time.Duration(max(0, rng.Intn(8)-3)) * time.Millisecond,
				}
				rt.enqueue(v)
				ref = append(ref, v)
			}
			want := append([]*Invocation(nil), ref...)
			sort.SliceStable(want, func(i, j int) bool { return pol.Before(want[i], want[j]) })
			got := rt.queue
			if len(got) != len(want) {
				t.Fatalf("queue length %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("queue[%d] = %s (prio %d, Tr %v, deadline %v), want %s (prio %d, Tr %v, deadline %v)",
						i, got[i].Kernel, got[i].Priority, got[i].Tr, got[i].Deadline,
						want[i].Kernel, want[i].Priority, want[i].Tr, want[i].Deadline)
				}
			}
		})
	}
}

// queueFill pre-loads a runtime's queue with n invocations of mixed keys.
func queueFill(rt *Runtime, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		rt.enqueue(&Invocation{
			Priority: rng.Intn(8),
			Tr:       time.Duration(rng.Intn(1000)) * time.Microsecond,
		})
	}
}

// BenchmarkHPFEnqueueDeep measures one insert into (and removal from) a
// deep queue.
func BenchmarkHPFEnqueueDeep(b *testing.B) {
	for _, depth := range []int{100, 10000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			_, rt := newRT(NewHPF(), false)
			rng := rand.New(rand.NewSource(1))
			queueFill(rt, depth, rng)
			v := &Invocation{Priority: rng.Intn(8), Tr: time.Duration(rng.Intn(1000)) * time.Microsecond}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.enqueue(v)
				rt.dequeue(v)
			}
		})
	}
}

// TestFFSKernelWeightsScopedPerTenant is the regression test for weight
// clobbering: two tenants at the same priority level must keep their own
// share weights, and a departed tenant's weight entry must be evicted with
// its overhead record.
func TestFFSKernelWeightsScopedPerTenant(t *testing.T) {
	ffs := NewFFS(0.10)
	eng, rt := newInstrumentedRT(ffs, false)

	// Same priority, different requested shares — under the old
	// priority-keyed map the second write would clobber the first.
	ffs.SetKernelWeight("a", 2)
	ffs.SetKernelWeight("b", 5)
	a := inv("a", 1, 1200, us(100), 2)
	b := inv("b", 1, 1200, us(100), 2)
	if w := ffs.weight(ffs.ensureTenant("a"), a); w != 2 {
		t.Fatalf("weight(a) = %v, want 2 (clobbered by b's request?)", w)
	}
	if w := ffs.weight(ffs.ensureTenant("b"), b); w != 5 {
		t.Fatalf("weight(b) = %v, want 5", w)
	}

	rt.Submit(a)
	rt.Submit(b)
	eng.Run()

	// A tenant's entry holds its requested weight: none may outlive it.
	if len(ffs.tenants) != 0 {
		t.Fatalf("%d tenant entries (with their weights) outlive the tenants", len(ffs.tenants))
	}
}

// TestGuestCompletesWhilePrimaryDraining covers the Expand(0) reclaim
// racing a temporal drain: a spatial guest's completion while the primary
// is draining for a higher-priority arrival triggers onComplete's
// full-width reclaim against an exec that is no longer running. The
// relaunch closure must observe the drained state and no-op; every
// invocation still completes exactly once. Runs under -race in CI.
func TestGuestCompletesWhilePrimaryDraining(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), true)

	// Primary: long-running, large L, so every drain takes ~(L-1)/2 tasks
	// (~5ms here).
	primary := inv("primary", 1, 120000, us(100), 100)
	// Guest: 40 tasks → a 5-SM spatial footprint; one 4ms wave, so it lands
	// on the yielded SMs ≈6ms and completes ≈10ms.
	guest := inv("guest", 3, 40, us(4000), 1)
	// High: full-width arrival at 7ms. With the guest resident the spatial
	// path is unavailable, so the primary takes a ~5ms temporal drain
	// spanning [7ms, ~12ms] — the guest's ≈10ms completion lands inside it.
	high := inv("high", 4, 1200, us(100), 2)

	var done []string
	var guestSawDrain bool
	primary.OnFinish = func(*Invocation) { done = append(done, "primary") }
	high.OnFinish = func(*Invocation) { done = append(done, "high") }
	guest.OnFinish = func(*Invocation) {
		done = append(done, "guest")
		guestSawDrain = rt.draining && rt.running == primary
	}

	rt.Submit(primary)
	eng.Schedule(us(1000), func() { rt.Submit(guest) })
	// The guest needs the primary's spatial drain (~5ms for L=100) before
	// it starts; land the high-priority arrival while the guest runs, so
	// the primary's temporal drain overlaps the guest's completion.
	eng.Schedule(us(7000), func() { rt.Submit(high) })
	eng.Run()

	if len(done) != 3 {
		t.Fatalf("completions = %v, want all of primary/guest/high exactly once", done)
	}
	if !guestSawDrain {
		t.Fatalf("guest completed outside the primary's drain window (order %v) — retune arrival times", done)
	}
	quiescent(t, eng, rt, primary, guest, high)
}

// quiescent fails the test unless every invocation finished and the runtime
// and engine hold nothing.
func quiescent(t *testing.T, eng *sim.Engine, rt *Runtime, invs ...*Invocation) {
	t.Helper()
	for _, v := range invs {
		if v.State() != InvFinished {
			t.Errorf("%s is %v at quiescence", v.Kernel, v.State())
		}
	}
	if rt.Running() != nil || rt.guest != nil || rt.pendingGuest != nil || len(rt.queue) != 0 {
		t.Errorf("runtime not quiescent: running=%v guest=%v pending=%v queued=%d",
			rt.Running(), rt.guest, rt.pendingGuest, len(rt.queue))
	}
	if got := eng.Pending(); got != 0 {
		t.Errorf("engine still reports %d pending events at quiescence", got)
	}
}

// TestSpatialPreemptOfLaunchingPrimary is the regression test for the
// `bad SM range [0,0)` panic that took flepd -spatial down: a small
// high-priority grid arriving while the primary is still in its launch
// window. The device cancels such a launch outright, so the victim keeps no
// SMs and there is no low range to host a guest on; the preemption must be
// temporal.
func TestSpatialPreemptOfLaunchingPrimary(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), true)
	primary := inv("primary", 1, 12000, us(100), 2)
	small := inv("small", 5, 16, us(100), 2)
	rt.Submit(primary)
	rt.Submit(small) // same instant: primary is launching
	eng.Run()
	quiescent(t, eng, rt, primary, small)
	if small.FinishedAt() >= primary.FinishedAt() {
		t.Errorf("small (prio 5) finished at %v, after primary (prio 1) at %v", small.FinishedAt(), primary.FinishedAt())
	}
	if s, tm := rt.met.SpatialPreempts.Value(), rt.met.TemporalPreempts.Value(); s != 0 || tm != 1 {
		t.Errorf("preemptions spatial=%d temporal=%d, want 0 and 1", s, tm)
	}
}

// TestSpatialPreemptWiderThanShrunkPrimary is the regression test for the
// primary that stayed r.running forever: between a guest's departure and
// the reclaim of its SMs the primary spans fewer SMs than the device, and a
// second guest needing at least that span stops it outright. The runtime
// must see that coming and preempt temporally.
func TestSpatialPreemptWiderThanShrunkPrimary(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), true)
	primary := inv("primary", 1, 12000, us(100), 2)
	narrow := inv("narrow", 3, 56, us(100), 2) // 7 SMs: primary shrinks to 8
	wide := inv("wide", 3, 80, us(100), 2)     // 10 SMs: more than those 8
	rt.Submit(primary)
	eng.Schedule(us(1000), func() {
		rt.Submit(narrow)
		rt.Submit(wide)
	})
	eng.Run()
	quiescent(t, eng, rt, primary, narrow, wide)
	if s, tm := rt.met.SpatialPreempts.Value(), rt.met.TemporalPreempts.Value(); s != 1 || tm != 1 {
		t.Errorf("preemptions spatial=%d temporal=%d, want 1 (narrow) and 1 (wide)", s, tm)
	}
}
