package flepruntime

import (
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/metrics"
	"flep/internal/sim"
	"flep/internal/trace"
)

func prof(name string) *gpu.KernelProfile {
	return &gpu.KernelProfile{
		Name: name, ThreadsPerCTA: 256, CTAsPerSM: 8,
		MemoryIntensity: 0.5, ContentionFloor: 0.8,
	}
}

func us(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }

// inv builds an invocation whose prediction Te equals its true duration
// (tasks*cost/120) — a perfect model, so tests isolate scheduling logic.
func inv(name string, prio, tasks int, cost time.Duration, L int) *Invocation {
	te := time.Duration(float64(tasks) / 120 * float64(cost))
	return &Invocation{
		Kernel: name, Priority: prio, Profile: prof(name),
		Tasks: tasks, TaskCost: cost, L: L, Te: te,
	}
}

func newRT(policy Policy, spatial bool) (*sim.Engine, *Runtime) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	return eng, New(dev, Config{Policy: policy, EnableSpatial: spatial})
}

func TestSingleInvocationCompletes(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	v := inv("k", 1, 1200, us(100), 2)
	var finished *Invocation
	v.OnFinish = func(x *Invocation) { finished = x }
	rt.Submit(v)
	eng.Run()
	if finished == nil {
		t.Fatal("invocation never finished")
	}
	if v.State() != InvFinished {
		t.Fatalf("state = %v", v.State())
	}
	// Turnaround ≈ solo: 10 waves of 100us + overheads.
	if v.Turnaround() < us(1000) || v.Turnaround() > us(1100) {
		t.Fatalf("turnaround = %v", v.Turnaround())
	}
	if v.Tw != 0 {
		t.Fatalf("Tw = %v for an uncontended run", v.Tw)
	}
	if v.Tr != 0 {
		t.Fatalf("Tr = %v after completion", v.Tr)
	}
}

func TestFIFOWithEqualRemaining(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	a := inv("a", 1, 1200, us(100), 2)
	b := inv("b", 1, 1200, us(100), 2)
	var order []string
	a.OnFinish = func(*Invocation) { order = append(order, "a") }
	b.OnFinish = func(*Invocation) { order = append(order, "b") }
	rt.Submit(a)
	eng.Schedule(us(1), func() { rt.Submit(b) })
	eng.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if b.Tw == 0 {
		t.Fatal("b should have waited")
	}
}

func TestHighPriorityPreemptsImmediately(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	low := inv("low", 1, 120000, us(100), 2) // ~100ms
	high := inv("high", 2, 1200, us(100), 2) // ~1ms
	var highDone, lowDone time.Duration
	low.OnFinish = func(*Invocation) { lowDone = eng.Now() }
	high.OnFinish = func(*Invocation) { highDone = eng.Now() }
	rt.Submit(low)
	eng.Schedule(us(500), func() { rt.Submit(high) })
	eng.Run()
	if highDone == 0 || lowDone == 0 {
		t.Fatal("not all kernels finished")
	}
	if highDone > us(2500) {
		t.Fatalf("high-priority turnaround too slow: done at %v", highDone)
	}
	if lowDone < highDone {
		t.Fatal("low finished before high despite preemption")
	}
	// Low's total time ≈ solo + high's run + overheads: well under 2x solo.
	if lowDone > 2*us(100000) {
		t.Fatalf("low done at %v, excessive", lowDone)
	}
}

func TestLowPriorityWaits(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	high := inv("high", 2, 12000, us(100), 2)
	low := inv("low", 1, 1200, us(100), 2)
	var order []string
	high.OnFinish = func(*Invocation) { order = append(order, "high") }
	low.OnFinish = func(*Invocation) { order = append(order, "low") }
	rt.Submit(high)
	eng.Schedule(us(100), func() { rt.Submit(low) })
	eng.Run()
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("order = %v", order)
	}
}

func TestSRTPreemptsLongRunning(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	long := inv("long", 1, 120000, us(100), 2) // 100ms
	short := inv("short", 1, 1200, us(100), 2) // 1ms
	var shortDone time.Duration
	short.OnFinish = func(*Invocation) { shortDone = eng.Now() }
	rt.Submit(long)
	eng.Schedule(us(1000), func() { rt.Submit(short) })
	eng.Run()
	if shortDone == 0 {
		t.Fatal("short never finished")
	}
	// Without preemption the short kernel would wait ~100ms.
	if shortDone > us(3500) {
		t.Fatalf("short done at %v: SRT did not preempt", shortDone)
	}
}

func TestOverheadAwareSkipsUnprofitablePreemption(t *testing.T) {
	// The running kernel is nearly done: preempting would cost more than
	// waiting. The overhead-aware rule must not preempt.
	fixed := func(string) time.Duration { return us(500) }
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	rt := New(dev, Config{Policy: NewHPF(), OverheadEstimate: fixed})
	long := inv("long", 1, 2400, us(100), 2) // 2ms total
	short := inv("short", 1, 1800, us(100), 2)
	preempts := 0
	log := &trace.Log{}
	rt.cfg.Log = log
	rt.Submit(long)
	// At 1.7ms, long has ~0.3ms left; short needs 1.5ms. 0.3 < 1.5+0.5.
	eng.Schedule(us(1700), func() { rt.Submit(short) })
	eng.Run()
	for _, e := range log.Filter("preempt", 0) {
		_ = e
		preempts++
	}
	if preempts != 0 {
		t.Fatalf("preempted %d times; overhead-aware rule should skip", preempts)
	}
}

func TestNaiveSRTPreemptsAnyway(t *testing.T) {
	h := NewHPF()
	h.OverheadAware = false
	fixed := func(string) time.Duration { return us(500) }
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	log := &trace.Log{}
	rt := New(dev, Config{Policy: h, OverheadEstimate: fixed, Log: log})
	long := inv("long", 1, 2400, us(100), 2)
	short := inv("short", 1, 240, us(100), 2) // 0.2ms
	rt.Submit(long)
	eng.Schedule(us(1700), func() { rt.Submit(short) })
	eng.Run()
	if len(log.Filter("preempt", 0)) == 0 {
		t.Fatal("naive SRT should have preempted")
	}
}

func TestSpatialPreemptionKeepsVictimRunning(t *testing.T) {
	eng, rt := newRT(NewHPF(), true)
	low := inv("low", 1, 12000, us(100), 2)
	tiny := inv("tiny", 2, 40, us(80), 1) // 40 CTAs → 5 SMs
	log := &trace.Log{}
	rt.cfg.Log = log
	var tinyDone, lowDone time.Duration
	tiny.OnFinish = func(*Invocation) { tinyDone = eng.Now() }
	low.OnFinish = func(*Invocation) { lowDone = eng.Now() }
	rt.Submit(low)
	eng.Schedule(us(1000), func() { rt.Submit(tiny) })
	eng.Run()
	if tinyDone == 0 || lowDone == 0 {
		t.Fatal("kernels did not finish")
	}
	// The victim must never have fully stopped: no temporal drain events.
	for _, e := range log.Filter("drained", 0) {
		if e.Kernel == "low" && e.Detail[0:8] == "temporal" {
			t.Fatalf("victim temporally drained: %v", e.Detail)
		}
	}
	// And the victim should reclaim the SMs afterwards.
	if len(log.Filter("expand", 0)) == 0 {
		t.Fatal("victim never expanded back")
	}
	// Victim's penalty should be mild: solo is 10ms; spatial co-run with a
	// ~100us guest must stay well under temporal-preemption cost.
	if lowDone > us(11500) {
		t.Fatalf("low done at %v", lowDone)
	}
}

func TestSpatialDisabledFallsBackToTemporal(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	low := inv("low", 1, 12000, us(100), 2)
	tiny := inv("tiny", 2, 40, us(80), 1)
	log := &trace.Log{}
	rt.cfg.Log = log
	rt.Submit(low)
	eng.Schedule(us(1000), func() { rt.Submit(tiny) })
	eng.Run()
	sawTemporal := false
	for _, e := range log.Filter("drained", 0) {
		if e.Kernel == "low" && len(e.Detail) >= 8 && e.Detail[:8] == "temporal" {
			sawTemporal = true
		}
	}
	if !sawTemporal {
		t.Fatal("expected temporal drain with spatial disabled")
	}
}

func TestTripletAccounting(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	low := inv("low", 1, 12000, us(100), 2) // 10ms
	high := inv("high", 2, 1200, us(100), 2)
	rt.Submit(low)
	eng.Schedule(us(2000), func() { rt.Submit(high) })
	eng.Run()
	// Low was preempted: its Tw must cover roughly high's execution.
	if low.Tw < us(800) || low.Tw > us(2000) {
		t.Fatalf("low.Tw = %v, want ≈ high's 1ms run", low.Tw)
	}
	if high.Tw > us(300) {
		t.Fatalf("high.Tw = %v, want ≈ drain latency only", high.Tw)
	}
	// Te never changes.
	if low.Te != time.Duration(float64(12000)/120*float64(us(100))) {
		t.Fatalf("low.Te changed: %v", low.Te)
	}
}

func TestFFSWeightedSharing(t *testing.T) {
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	ffs := NewFFS(0.10)
	log := &trace.Log{}
	rt := New(dev, Config{Policy: ffs, Log: log})

	// Closed-loop clients: resubmit on completion, 2:1 weights.
	acc := metrics.NewShareAccumulator(us(5000))
	dev.Observer = func(ev gpu.Event) {
		switch ev.Kind {
		case gpu.EvResident:
			acc.Observe(ev.Time, ev.Kernel)
		case gpu.EvComplete, gpu.EvDrained:
			acc.Observe(ev.Time, "")
		}
	}
	mkClient := func(name string, prio int) func() {
		var submit func()
		submit = func() {
			v := inv(name, prio, 2400, us(100), 2) // 2ms per invocation
			v.OnFinish = func(*Invocation) { submit() }
			rt.Submit(v)
		}
		return submit
	}
	mkClient("hi", 2)()
	mkClient("lo", 1)()
	eng.RunUntil(200 * time.Millisecond)

	samples := acc.Samples(eng.Now())
	hi := metrics.MeanShare(samples, "hi")
	lo := metrics.MeanShare(samples, "lo")
	if hi <= 0 || lo <= 0 {
		t.Fatalf("shares hi=%f lo=%f", hi, lo)
	}
	ratio := hi / lo
	if ratio < 1.6 || ratio > 2.5 {
		t.Fatalf("share ratio = %.2f, want ≈ 2.0 (hi=%.3f lo=%.3f)", ratio, hi, lo)
	}
}

func TestFFSRespectsOverheadBudget(t *testing.T) {
	// With a tight budget the epoch must grow; count preemptions in a
	// fixed horizon and check the implied overhead stays near budget.
	run := func(budget float64) int {
		eng := sim.New()
		dev := gpu.New(eng, gpu.DefaultParams())
		log := &trace.Log{}
		rt := New(dev, Config{Policy: NewFFS(budget), Log: log})
		mk := func(name string) func() {
			var submit func()
			submit = func() {
				v := inv(name, 1, 24000, us(100), 2) // 20ms
				v.OnFinish = func(*Invocation) { submit() }
				rt.Submit(v)
			}
			return submit
		}
		mk("a")()
		mk("b")()
		eng.RunUntil(300 * time.Millisecond)
		return len(log.Filter("epoch", 0))
	}
	tight := run(0.02)
	loose := run(0.20)
	if tight >= loose {
		t.Fatalf("tighter budget must preempt less: %d vs %d", tight, loose)
	}
}

func TestSubmitAfterIdlePeriod(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	a := inv("a", 1, 1200, us(100), 2)
	rt.Submit(a)
	eng.Run()
	b := inv("b", 1, 1200, us(100), 2)
	var done bool
	b.OnFinish = func(*Invocation) { done = true }
	rt.Submit(b)
	eng.Run()
	if !done {
		t.Fatal("second submission after idle never ran")
	}
}

func TestManyKernelsSRTOrder(t *testing.T) {
	// Five equal-priority kernels with distinct lengths submitted while a
	// long one runs: they must finish in shortest-first order.
	eng, rt := newRT(NewHPF(), false)
	first := inv("first", 1, 60000, us(100), 2) // 50ms
	rt.Submit(first)
	lengths := map[string]int{"k1": 1200, "k2": 6000, "k3": 2400, "k4": 12000}
	var order []string
	eng.Schedule(us(500), func() {
		for name, tasks := range lengths {
			v := inv(name, 1, tasks, us(100), 2)
			v.OnFinish = func(x *Invocation) { order = append(order, x.Kernel) }
			rt.Submit(v)
		}
	})
	eng.Run()
	want := []string{"k1", "k3", "k2", "k4"}
	if len(order) != 4 {
		t.Fatalf("finished %d kernels", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("finish order = %v, want %v", order, want)
		}
	}
}
