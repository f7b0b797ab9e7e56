package flepruntime

import (
	"testing"
	"time"
)

// TestFFSChoosesEpochOwner pins FFS's one departure from queue order: while
// an epoch is open its owner's queued invocation goes next, ahead of the
// round-robin head; once the epoch has ended the head does.
func TestFFSChoosesEpochOwner(t *testing.T) {
	ffs := NewFFS(0.10)
	eng, rt := newRT(ffs, false)
	a := inv("a", 1, 12000, us(100), 2) // 10 ms: outlasts its epoch
	b := inv("b", 1, 1200, us(100), 2)
	a2 := inv("a", 1, 1200, us(100), 2)
	rt.Submit(a)
	rt.Submit(b)
	rt.Submit(a2)
	if rt.Running() != a || ffs.curKernel != "a" || ffs.epochEnd <= 0 {
		t.Fatalf("a does not own an open epoch: running=%v owner=%q end=%v", rt.Running(), ffs.curKernel, ffs.epochEnd)
	}
	if q := rt.queue; len(q) != 2 || q[0] != b || q[1] != a2 {
		t.Fatalf("queue is not [b a2] in arrival order: %v", q)
	}
	if got := rt.next(); got != a2 {
		t.Fatalf("inside a's epoch next() = %s (id %d), want the owner's a2", got.Kernel, got.ID)
	}
	eng.RunUntil(ffs.epochEnd - time.Nanosecond)
	if got := rt.next(); got != a2 {
		t.Fatalf("at the epoch's last instant next() = %s (id %d), want the owner's a2", got.Kernel, got.ID)
	}
	eng.RunUntil(ffs.epochEnd)
	if ffs.Choose(rt) != nil {
		t.Fatal("Choose still picks after the epoch ended")
	}
	if got := rt.next(); got != b {
		t.Fatalf("after the epoch next() = %s (id %d), want the head b", got.Kernel, got.ID)
	}
	eng.Run()
	for _, v := range []*Invocation{a, b, a2} {
		if v.State() != InvFinished {
			t.Fatalf("%s (id %d) never finished", v.Kernel, v.ID)
		}
	}
}

// TestDependentQueueGaugeFollowsQueue checks the two depth gauges against a
// recount of the queue after every engine step of a run in which a
// model-graph stage is dispatched, preempted temporally, requeued and
// dispatched again beside a second queued stage.
func TestDependentQueueGaugeFollowsQueue(t *testing.T) {
	eng, rt := newInstrumentedRT(NewHPF(), false)
	stage := func(name string, prio, tasks int) *Invocation {
		v := inv(name, prio, tasks, us(100), 2)
		v.Dependent = true
		return v
	}
	low, behind := stage("low", 1, 12000), stage("behind", 1, 12000)
	rt.Submit(low)
	rt.Submit(behind)
	eng.Schedule(us(1000), func() { rt.Submit(inv("high", 5, 1200, us(100), 2)) })
	eng.Schedule(us(1100), func() { rt.Submit(stage("late", 1, 120)) })

	maxDep := 0.0
	check := func() {
		t.Helper()
		dep := 0
		for _, q := range rt.queue {
			if q.Dependent {
				dep++
			}
		}
		if got := rt.met.DependentQueueLength.Value(); got != float64(dep) {
			t.Fatalf("at %v dependent gauge = %v, queue holds %d stages", eng.Now(), got, dep)
		}
		if got := rt.met.QueueLength.Value(); got != float64(len(rt.queue)) {
			t.Fatalf("at %v queue gauge = %v, queue holds %d", eng.Now(), got, len(rt.queue))
		}
		maxDep = max(maxDep, float64(dep))
	}
	check()
	for eng.Step() {
		check()
	}
	if low.Preemptions != 1 {
		t.Fatalf("low was preempted %d times, want the one temporal preemption", low.Preemptions)
	}
	// low (requeued), behind and late all waited while high ran.
	if maxDep != 3 {
		t.Fatalf("at most %v stages were ever queued together, want 3", maxDep)
	}
	if got := rt.met.DependentQueueLength.Value(); got != 0 {
		t.Fatalf("dependent gauge = %v at quiescence", got)
	}
}
