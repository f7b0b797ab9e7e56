package flepruntime

import (
	"testing"
	"time"

	"flep/internal/trace"
)

// linv builds a deadline-bearing ("latency-critical") invocation; the
// deadline is absolute virtual time, as the server's admit path sets it.
func linv(name string, tasks int, cost, deadline time.Duration) *Invocation {
	v := inv(name, 1, tasks, cost, 2)
	v.Deadline = deadline
	return v
}

func TestEDFQueueOrder(t *testing.T) {
	// Pure queue-discipline test: nothing runs, so rearm arms no timer.
	_, rt := newRT(NewEDF(), false)
	be1 := inv("be1", 1, 1200, us(100), 2)
	be2 := inv("be2", 3, 1200, us(100), 2)
	be3 := inv("be3", 3, 1200, us(100), 2)
	lc1 := linv("lc1", 1200, us(100), us(9000))
	lc2 := linv("lc2", 1200, us(100), us(3000))
	lc3 := linv("lc3", 1200, us(100), us(9000)) // ties with lc1 → FIFO
	for _, v := range []*Invocation{be1, lc1, be2, lc2, lc3, be3} {
		rt.enqueue(v)
	}
	want := []string{"lc2", "lc1", "lc3", "be2", "be3", "be1"}
	got := rt.queue
	if len(got) != len(want) {
		t.Fatalf("queued %d, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Kernel != name {
			names := make([]string, len(got))
			for j, q := range got {
				names[j] = q.Kernel
			}
			t.Fatalf("order = %v, want %v", names, want)
		}
	}
	rt.dequeue(lc2)
	if rt.next() != lc1 {
		t.Fatalf("after dequeue head = %v", rt.next().Kernel)
	}
}

func TestEDFFinishesInDeadlineOrder(t *testing.T) {
	// Three LC kernels queued in reverse-deadline order behind a runner:
	// completions must follow deadlines, not submission order.
	eng, rt := newRT(NewEDF(), false)
	first := inv("first", 1, 6000, us(100), 2) // 5ms, keeps the GPU busy
	rt.Submit(first)
	var order []string
	eng.Schedule(us(500), func() {
		deadlines := map[string]time.Duration{
			"late": us(40000), "mid": us(30000), "early": us(20000),
		}
		for _, name := range []string{"late", "mid", "early"} {
			v := linv(name, 1200, us(100), eng.Now()+deadlines[name])
			v.OnFinish = func(x *Invocation) { order = append(order, x.Kernel) }
			rt.Submit(v)
		}
	})
	eng.Run()
	want := []string{"early", "mid", "late"}
	if len(order) != 3 {
		t.Fatalf("finished %d kernels", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("finish order = %v, want %v", order, want)
		}
	}
}

func TestEDFTightDeadlinePreemptsBestEffort(t *testing.T) {
	eng, rt := newRT(NewEDF(), false)
	log := &trace.Log{}
	rt.cfg.Log = log
	be := inv("be", 1, 120000, us(100), 2) // 100ms best-effort
	rt.Submit(be)
	var lc *Invocation
	eng.Schedule(us(500), func() {
		// 1ms of work, 5ms of budget: waiting for the 100ms runner would
		// miss; draining it meets comfortably.
		lc = linv("lc", 1200, us(100), eng.Now()+us(5000))
		rt.Submit(lc)
	})
	eng.Run()
	if len(log.Filter("preempt", 0)) == 0 {
		t.Fatal("EDF should have preempted the best-effort runner")
	}
	if lc.FinishedAt() == 0 || lc.FinishedAt() > lc.Deadline {
		t.Fatalf("lc finished %v, deadline %v: missed despite preemption",
			lc.FinishedAt(), lc.Deadline)
	}
	if be.State() != InvFinished {
		t.Fatal("preempted best-effort work never finished")
	}
}

func TestEDFAmpleSlackDoesNotPreempt(t *testing.T) {
	// The runner finishes soon enough that waiting still meets: lazy EDF
	// must not pay a drain it doesn't need.
	eng, rt := newRT(NewEDF(), false)
	log := &trace.Log{}
	rt.cfg.Log = log
	be := inv("be", 1, 2400, us(100), 2) // 2ms
	rt.Submit(be)
	var lc *Invocation
	eng.Schedule(us(500), func() {
		lc = linv("lc", 1200, us(100), eng.Now()+us(10000))
		rt.Submit(lc)
	})
	eng.Run()
	if n := len(log.Filter("preempt", 0)); n != 0 {
		t.Fatalf("preempted %d times with ample slack", n)
	}
	if lc.FinishedAt() > lc.Deadline {
		t.Fatalf("lc finished %v after deadline %v without contention",
			lc.FinishedAt(), lc.Deadline)
	}
}

func TestEDFHopelessDeadlineDoesNotPreempt(t *testing.T) {
	// The deadline is unmeetable even on an idle GPU (budget < Te): the
	// cost-aware rule must not burn a drain on a lost cause.
	eng, rt := newRT(NewEDF(), false)
	log := &trace.Log{}
	rt.cfg.Log = log
	be := inv("be", 1, 120000, us(100), 2)
	rt.Submit(be)
	var lc *Invocation
	eng.Schedule(us(500), func() {
		lc = linv("lc", 1200, us(100), eng.Now()+us(800)) // needs ~1ms
		rt.Submit(lc)
	})
	eng.Run()
	if n := len(log.Filter("preempt", 0)); n != 0 {
		t.Fatalf("preempted %d times for an unmeetable deadline", n)
	}
	if lc.State() != InvFinished {
		t.Fatal("hopeless invocation must still run to completion")
	}
	if lc.FinishedAt() <= lc.Deadline {
		t.Fatal("test premise broken: deadline was meetable")
	}
}

func TestEDFNeverPreemptsEarlierDeadline(t *testing.T) {
	// The runner's own deadline is earlier: EDF order says it keeps the
	// GPU even though the arrival's deadline is at risk.
	eng, rt := newRT(NewEDF(), false)
	log := &trace.Log{}
	rt.cfg.Log = log
	a := linv("a", 6000, us(100), us(10000)) // 5ms of work, deadline 10ms
	rt.Submit(a)
	var order []string
	a.OnFinish = func(*Invocation) { order = append(order, "a") }
	eng.Schedule(us(1000), func() {
		b := linv("b", 9600, us(100), eng.Now()+us(10000)) // 8ms work, misses by waiting
		b.OnFinish = func(*Invocation) { order = append(order, "b") }
		rt.Submit(b)
	})
	eng.Run()
	if n := len(log.Filter("preempt", 0)); n != 0 {
		t.Fatalf("preempted the earlier deadline %d times", n)
	}
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("finish order = %v, want a first", order)
	}
	if a.FinishedAt() > a.Deadline {
		t.Fatalf("a finished %v after its %v deadline", a.FinishedAt(), a.Deadline)
	}
}

func TestEDFBestEffortNeverPreempts(t *testing.T) {
	// Under HPF's SRT rule a short arrival would preempt the long runner;
	// EDF gives deadline-free work no preemption rights at all.
	eng, rt := newRT(NewEDF(), false)
	log := &trace.Log{}
	rt.cfg.Log = log
	long := inv("long", 1, 120000, us(100), 2)
	short := inv("short", 2, 1200, us(100), 2) // higher priority, still BE
	var order []string
	long.OnFinish = func(*Invocation) { order = append(order, "long") }
	short.OnFinish = func(*Invocation) { order = append(order, "short") }
	rt.Submit(long)
	eng.Schedule(us(1000), func() { rt.Submit(short) })
	eng.Run()
	if n := len(log.Filter("preempt", 0)); n != 0 {
		t.Fatalf("best-effort work preempted %d times", n)
	}
	if len(order) != 2 || order[0] != "long" {
		t.Fatalf("finish order = %v, want long first", order)
	}
}

func TestEDFRiskTimerFiresOnStalePrediction(t *testing.T) {
	// Underestimate the runner's Te so "waiting meets" is decided on a
	// prediction that goes stale: the risk timer must fire (edf-risk in
	// the log) and the run must still complete every invocation. This
	// also exercises timer re-arm/invalidation across dispatches.
	eng, rt := newRT(NewEDF(), false)
	log := &trace.Log{}
	rt.cfg.Log = log
	be := inv("be", 1, 12000, us(100), 2) // truly 10ms...
	be.Te = us(2000)                      // ...predicted as 2ms
	rt.Submit(be)
	var lc *Invocation
	eng.Schedule(us(500), func() {
		lc = linv("lc", 1200, us(100), eng.Now()+us(3500))
		rt.Submit(lc)
	})
	eng.Run()
	if len(log.Filter("edf-risk", 0)) == 0 {
		t.Fatal("risk timer never fired despite the stale prediction")
	}
	if be.State() != InvFinished || lc.State() != InvFinished {
		t.Fatalf("states be=%v lc=%v, want both finished", be.State(), lc.State())
	}
	if n := len(rt.queue); n != 0 {
		t.Fatalf("queue not drained: %d pending", n)
	}
}
