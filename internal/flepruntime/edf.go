package flepruntime

import (
	"fmt"

	"flep/internal/sim"
)

// EDF is the SLO tier's deadline policy: earliest-deadline-first over
// invocations that carry a virtual-time deadline, with best-effort
// (deadline-free) work ordered behind them by (priority desc, arrival).
// It is deliberately lazy about preemption — the paper's machinery makes
// preemption cheap, not free — so a deadline-bearing arrival preempts
// the running kernel only when its deadline is actually at risk AND
// paying the drain still lets it meet (GCAPS-style deadline scheduling
// with FLEP's cost model):
//
//   - wait would miss:   now + Tr(running) + Tr(best) > Deadline(best)
//   - preempt would meet: now + O(running) + Tr(best) ≤ Deadline(best)
//
// Best-effort work never preempts anything. Because a queued deadline
// can drift into risk with no arrival or completion to re-trigger
// scheduling, EDF arms a risk timer at the head deadline's latest safe
// preemption instant (Deadline − Tr − O(running)); when it fires, the
// reconcile loop re-evaluates and the preemption rule above takes over.
type EDF struct {
	// riskTimer is the armed latest-safe-preemption event for the
	// earliest queued deadline; riskSeq invalidates superseded timers
	// (the FFS epoch-timer pattern, so dead events never accrete in the
	// engine and never fire stale). The policy is the timer's handler
	// (Fire) with riskSeq as its argument; rt is the runtime it was armed on.
	riskTimer sim.Timer
	riskSeq   int
	rt        *Runtime
}

// NewEDF returns the earliest-deadline-first policy.
func NewEDF() *EDF { return &EDF{} }

// Before implements Policy: deadline-bearing work first in deadline order,
// then best-effort by (priority desc, arrival).
func (e *EDF) Before(v, q *Invocation) bool {
	vd, qd := v.Deadline > 0, q.Deadline > 0
	if vd != qd {
		return vd
	}
	if vd {
		return v.Deadline < q.Deadline
	}
	return v.Priority > q.Priority
}

// ShouldPreempt applies the cost-of-preemption-aware EDF rule described
// on the type. Best-effort candidates never preempt; a deadline-bearing
// candidate preempts only a later-deadline (or deadline-free) victim,
// only when waiting would miss, and only when draining still meets.
func (e *EDF) ShouldPreempt(r *Runtime, running, best *Invocation) bool {
	if best.Deadline <= 0 {
		return false
	}
	if running.Deadline > 0 && running.Deadline <= best.Deadline {
		return false // EDF order: the victim's deadline is at least as urgent
	}
	now := r.Device().Now()
	running.chargeRun(now)
	if now+running.Tr+best.Tr <= best.Deadline {
		return false // waiting still meets: the drain would be pure overhead
	}
	return now+r.OverheadFor(running)+best.Tr <= best.Deadline
}

// OnDispatch re-arms the risk timer for the next queued deadline: the
// runner just changed, so the latest safe preemption instant (which
// depends on the runner's drain cost) changed with it.
func (e *EDF) OnDispatch(r *Runtime, v *Invocation) { e.rearm(r) }

// OnQueueChange re-arms the risk timer: the head deadline may be tighter
// than, or no longer be, the one the current timer guards.
func (e *EDF) OnQueueChange(r *Runtime) { e.rearm(r) }

// firstDeadline returns the earliest-deadline queued invocation (the
// queue head when any deadline work waits), or nil.
func firstDeadline(r *Runtime) *Invocation {
	if len(r.queue) == 0 || r.queue[0].Deadline <= 0 {
		return nil
	}
	return r.queue[0]
}

// rearm (re)schedules the risk timer at the queued head deadline's
// latest safe preemption instant. With nothing running the reconcile
// loop dispatches immediately, and with no queued deadline there is
// nothing to guard — both cases just cancel any armed timer.
func (e *EDF) rearm(r *Runtime) {
	e.riskSeq++
	now := r.Device().Now()
	if e.riskTimer.Pending() && e.riskTimer.When() > now {
		e.riskTimer.Cancel()
	}
	e.riskTimer = sim.Timer{}
	head := firstDeadline(r)
	if head == nil {
		return
	}
	running := r.Running()
	if running == nil {
		return
	}
	at := head.Deadline - head.Tr - r.OverheadFor(running)
	if at < now {
		at = now
	}
	e.rt = r
	e.riskTimer = r.Device().Engine().AtFire(at, e, 0, e.riskSeq)
}

// Fire implements sim.Handler for the risk timer, at the latest safe
// preemption instant: re-enter the reconcile loop so ShouldPreempt decides
// with the deadline now at risk. It does not re-arm itself — every state
// change that could matter (enqueue, dequeue, dispatch) re-arms, so a
// no-op firing (e.g. mid-drain) cannot spin at one timestamp.
func (e *EDF) Fire(_, seq int) {
	if seq != e.riskSeq {
		return
	}
	r := e.rt
	e.riskTimer = sim.Timer{}
	if head := firstDeadline(r); head != nil && r.cfg.Log != nil {
		r.log("edf-risk", head.Kernel,
			fmt.Sprintf("id=%d deadline=%v at risk", head.ID, head.Deadline))
	}
	r.schedule()
}
