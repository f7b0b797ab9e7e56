package flepruntime

import (
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/sim"
)

// TestHostStateMachineFollowsFigure5 traces one invocation through the
// paper's Figure 5: its host waits for a decision while the invocation
// waits (S2), for the GPU while it runs (S3), and runs CPU code again once
// it finished (S1). Submit → S2 → (scheduled) S3 → (preempted) S2 →
// (rescheduled) S3 → (finished) S1.
func TestHostStateMachineFollowsFigure5(t *testing.T) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	rt := New(dev, Config{Policy: NewHPF()})

	long := inv("long", 1, 12000, us(100), 2)
	high := inv("high", 2, 1200, us(100), 2)

	var observed []InvState
	record := func(at time.Duration) {
		eng.Schedule(at, func() { observed = append(observed, long.State()) })
	}
	if err := rt.Submit(long); err != nil {
		t.Fatal(err)
	}
	record(us(1))    // dispatched (launching counts as running) → S3
	record(us(1500)) // preempted by high (drain ~us(1000)+) → S2
	record(us(2600)) // high done (~1ms + overheads), long resumed → S3
	eng.Schedule(us(1000), func() {
		if err := rt.Submit(high); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	observed = append(observed, long.State()) // finished → S1

	want := []InvState{InvRunning, InvWaiting, InvRunning, InvFinished}
	if len(observed) != len(want) {
		t.Fatalf("observed %v", observed)
	}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("state trace %v, want %v", observed, want)
		}
	}
}

// Three priority levels: the runtime must maintain one queue per level and
// always serve the highest non-empty one (Figure 6 case 2).
func TestThreePriorityLevels(t *testing.T) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	rt := New(dev, Config{Policy: NewHPF()})

	low := inv("low", 1, 60000, us(100), 2)  // 50ms
	mid := inv("mid", 2, 2400, us(100), 2)   // 2ms
	high := inv("high", 3, 1200, us(100), 2) // 1ms
	var order []string
	for _, v := range []*Invocation{low, mid, high} {
		v := v
		v.OnFinish = func(*Invocation) { order = append(order, v.Kernel) }
	}
	if err := rt.Submit(low); err != nil {
		t.Fatal(err)
	}
	// mid arrives first, then high: high must preempt mid.
	eng.Schedule(us(500), func() { rt.Submit(mid) })
	eng.Schedule(us(800), func() { rt.Submit(high) })
	eng.Run()
	want := []string{"high", "mid", "low"}
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	// high preempted mid, so mid's waiting time covers high's run.
	if mid.Tw < us(900) {
		t.Fatalf("mid.Tw = %v, expected to cover high's execution", mid.Tw)
	}
}

// A cascade: each arriving kernel has higher priority than the running one
// (Figure 6 line 3-6, repeatedly). All must finish in priority order.
func TestPriorityCascade(t *testing.T) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	rt := New(dev, Config{Policy: NewHPF()})
	const n = 5
	var order []string
	for p := 1; p <= n; p++ {
		p := p
		v := inv("p", p, 12000, us(100), 2)
		v.Kernel = string(rune('a' + p - 1))
		v.OnFinish = func(x *Invocation) { order = append(order, x.Kernel) }
		eng.Schedule(time.Duration(p)*us(200), func() { rt.Submit(v) })
	}
	eng.Run()
	if len(order) != n {
		t.Fatalf("finished %d", len(order))
	}
	// Highest priority (submitted last) finishes first, and so on down.
	want := []string{"e", "d", "c", "b", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}
