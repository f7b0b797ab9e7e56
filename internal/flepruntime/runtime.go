package flepruntime

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"flep/internal/gpu"
	"flep/internal/trace"
	"flep/internal/transform"
)

// Policy is a scheduling policy: an order over the waiting invocations and
// a preemption rule. The runtime owns the waiting queue and keeps it sorted
// by Before; what a policy needs beyond the two methods it gets through the
// optional one-method hooks below, each of which receives the runtime.
type Policy interface {
	// Before reports whether v goes strictly ahead of q. Invocations
	// neither of which is ahead of the other keep their arrival order. The
	// queue is binary-searched by it, so the answer for two queued
	// invocations must not change while they wait.
	Before(v, q *Invocation) bool
	// ShouldPreempt decides whether best should preempt running (both
	// non-nil).
	ShouldPreempt(r *Runtime, running, best *Invocation) bool
}

// The optional hooks, resolved once in New.

// dispatchHook runs after every dispatch (FFS opens epochs, EDF re-arms its
// risk timer against the new runner).
type dispatchHook interface{ OnDispatch(*Runtime, *Invocation) }

// completionHook runs after an invocation finishes and its OnFinish has
// fired (FFS evicts departed tenants).
type completionHook interface{ OnCompletion(*Runtime, *Invocation) }

// queueHook runs after every insertion into and removal from the waiting
// queue (EDF's risk timer guards the head deadline).
type queueHook interface{ OnQueueChange(*Runtime) }

// chooseHook picks the next invocation to run when that is not simply the
// head of the queue; nil means the head (FFS prefers the open epoch's
// owner).
type chooseHook interface{ Choose(*Runtime) *Invocation }

// Config parameterizes the runtime engine.
type Config struct {
	// Policy is the scheduling policy (required; see NewPolicy).
	Policy Policy
	// EnableSpatial turns on spatial preemption: when a higher-priority
	// kernel needs fewer SMs than the device has, only that many SMs are
	// yielded.
	EnableSpatial bool
	// SpatialSMs overrides the yielded SM count (0 = just enough to host
	// the guest's CTAs). Figure 16 sweeps this to trade guest performance
	// against preemption overhead.
	SpatialSMs int
	// OverheadEstimate returns the estimated preemption overhead for a
	// kernel (used by HPF's decision rule and FFS's epoch sizing). Nil
	// falls back to a drain-model estimate.
	OverheadEstimate func(kernel string) time.Duration
	// OnPreemptDrained, if set, observes every realized preemption drain
	// with its latency (flag raise → drain complete). Replay uses it to
	// collect exact drain-latency distributions; metrics histograms only
	// keep bucketed approximations. Called on the simulation goroutine.
	OnPreemptDrained func(v *Invocation, latency time.Duration)
	// Log, if set, receives runtime events.
	Log *trace.Log
	// Metrics, if set, receives runtime instrumentation (see NewMetrics).
	Metrics *Metrics
}

// Runtime is the FLEP online engine: it owns the device, buffers
// intercepted invocations in one waiting queue ordered by the policy, and
// realizes preemption and scheduling decisions.
type Runtime struct {
	dev *gpu.Device
	cfg Config
	met *Metrics

	onDispatch    dispatchHook
	onCompletion  completionHook
	onQueueChange queueHook
	choose        chooseHook

	// queue holds the waiting invocations, sorted by cfg.Policy.Before with
	// arrival order among equals; queuedDependents counts the model-graph
	// stages among them.
	queue            []*Invocation
	queuedDependents int

	nextID  int
	running *Invocation // primary execution (nil if GPU free)
	guest   *Invocation // spatial guest on low SMs (nil if none)
	// draining is set while a preemption drain is in flight; scheduling
	// pauses until the drained callback.
	draining     bool
	pendingGuest *Invocation // waiting to land on spatially-freed SMs
}

// New builds a runtime on the device.
func New(dev *gpu.Device, cfg Config) *Runtime {
	if cfg.Policy == nil {
		panic("flepruntime: config without policy")
	}
	r := &Runtime{dev: dev, cfg: cfg, met: cfg.Metrics}
	if r.met == nil {
		r.met = &Metrics{} // inert: every instrument is nil-safe
	}
	r.onDispatch, _ = cfg.Policy.(dispatchHook)
	r.onCompletion, _ = cfg.Policy.(completionHook)
	r.onQueueChange, _ = cfg.Policy.(queueHook)
	r.choose, _ = cfg.Policy.(chooseHook)
	return r
}

// Device returns the underlying device.
func (r *Runtime) Device() *gpu.Device { return r.dev }

// Running returns the primary running invocation, or nil.
func (r *Runtime) Running() *Invocation { return r.running }

// enqueue inserts v after every queued invocation it is not strictly ahead
// of: a binary search for the slot and one copy of the tail.
func (r *Runtime) enqueue(v *Invocation) {
	i := sort.Search(len(r.queue), func(i int) bool { return r.cfg.Policy.Before(v, r.queue[i]) })
	r.queue = slices.Insert(r.queue, i, v)
	r.queueChanged(v, 1)
}

// dequeue removes a queued invocation.
func (r *Runtime) dequeue(v *Invocation) {
	if i := slices.Index(r.queue, v); i >= 0 {
		r.queue = slices.Delete(r.queue, i, i+1)
		r.queueChanged(v, -1)
	}
}

// queueChanged moves the depth gauges by v's arrival or departure and tells
// the policy.
func (r *Runtime) queueChanged(v *Invocation, delta int) {
	if v.Dependent {
		r.queuedDependents += delta
	}
	r.met.QueueLength.Set(float64(len(r.queue)))
	r.met.DependentQueueLength.Set(float64(r.queuedDependents))
	if r.onQueueChange != nil {
		r.onQueueChange.OnQueueChange(r)
	}
}

// next returns the invocation to run next — the policy's pick if it makes
// one, else the head of the queue — or nil when nothing waits.
func (r *Runtime) next() *Invocation {
	if r.choose != nil {
		if v := r.choose.Choose(r); v != nil {
			return v
		}
	}
	if len(r.queue) == 0 {
		return nil
	}
	return r.queue[0]
}

// log records a runtime event. Callers that format their detail check
// cfg.Log themselves: a Sprintf's arguments are boxed before log could look.
func (r *Runtime) log(kind, kernel, detail string) {
	if r.cfg.Log != nil {
		r.cfg.Log.Runtime(r.dev.Now(), kind, kernel, detail)
	}
}

// Submit intercepts a kernel invocation (the transformed host program's
// flep_intercept call) and enters it into scheduling. Invocations whose
// working set exceeds the device memory can never run and are rejected, as
// is one a runtime still holds: each submission finishes exactly once.
func (r *Runtime) Submit(v *Invocation) error {
	if err := v.held(); err != nil {
		return err
	}
	if v.WorkingSet > 0 && r.dev.Params().MemoryBytes > 0 &&
		v.WorkingSet > r.dev.Params().MemoryBytes {
		return fmt.Errorf("flepruntime: %s working set %d exceeds device memory %d",
			v.Kernel, v.WorkingSet, r.dev.Params().MemoryBytes)
	}
	r.nextID++
	v.ID, v.rt = r.nextID, r
	v.submittedAt = r.dev.Now()
	if v.Tr == 0 {
		v.Tr = v.Te
	}
	if v.L <= 0 {
		v.L = 1
	}
	v.overhead = 0 // estimated by this runtime on first use
	v.beginWait(r.dev.Now())
	r.enqueue(v)
	r.met.Submits.Inc()
	if v.Dependent {
		r.met.DependentSubmits.Inc()
	}
	if r.cfg.Log != nil {
		r.log("submit", v.Kernel, fmt.Sprintf("id=%d prio=%d Te=%v", v.ID, v.Priority, v.Te))
	}
	r.schedule()
	return nil
}

// fits reports whether the invocation's working set can be (or already is)
// reserved.
func (r *Runtime) fits(v *Invocation) bool {
	return v.reserved || v.WorkingSet <= r.dev.MemoryFree()
}

// OverheadFor estimates the preemption overhead of the kernel: the
// configured profile-based estimate if available, otherwise a drain-model
// bound (flag propagation + poll + expected residual batch + relaunch).
// The residual term mirrors gpu.Exec.drainTime: a uniformly-positioned
// worker owes (L-1)/2 tasks on average before its next flag poll.
// It depends only on the kernel and on fields fixed at Submit, so it is
// computed once per invocation; policies ask on every decision.
func (r *Runtime) OverheadFor(v *Invocation) time.Duration {
	if v.overhead > 0 {
		return v.overhead
	}
	par := r.dev.Params()
	batch := time.Duration(float64(v.L-1) / 2 * float64(v.TaskCost))
	v.overhead = par.FlagPropagation + par.PinnedReadLatency + batch + 2*par.LaunchLatency
	if r.cfg.OverheadEstimate != nil {
		if d := r.cfg.OverheadEstimate(v.Kernel); d > 0 {
			v.overhead = d
		}
	}
	return v.overhead
}

// smsNeeded computes the spatial footprint of an invocation: just enough
// SMs to host all its CTAs.
func (r *Runtime) smsNeeded(v *Invocation) int {
	occ := transform.Occupancy{CTAsPerSM: v.Profile.CTAsPerSM}
	return transform.SMsNeeded(occ, v.Tasks-v.doneTasks, r.dev.Params().Limits)
}

// schedule is the reconcile loop: called after every submit, completion,
// and drain. It decides at most one action per call.
func (r *Runtime) schedule() {
	if r.draining {
		return
	}
	best := r.next()
	if best == nil {
		return
	}
	if !r.fits(best) {
		// Memory admission: the policy's first choice cannot become
		// resident yet. Fall back to the first queued invocation that
		// fits, so neither an idle GPU nor a preemption opportunity
		// stalls behind a memory-blocked kernel.
		best = nil
		for _, q := range r.queue {
			if r.fits(q) {
				best = q
				break
			}
		}
		if best == nil {
			return // a completion will free memory; retry then
		}
	}
	if r.running == nil {
		if r.guest != nil {
			// A spatial guest holds [0, hi); the high SMs are free. Idling
			// them until the guest departs would stall the whole device
			// behind one small kernel, so dispatch the next invocation as
			// the new primary on [hi, NumSMs). When the guest completes,
			// onComplete expands the primary back down to SM 0.
			_, hi := r.guest.exec.SMRange()
			if hi >= r.dev.NumSMs() {
				return // guest covers the device; wait for it
			}
			r.dequeue(best)
			r.dispatch(best, hi, r.dev.NumSMs(), false)
			return
		}
		r.dequeue(best)
		r.dispatch(best, 0, r.dev.NumSMs(), false)
		return
	}
	// Decide preemption of the running invocation.
	if r.cfg.Policy.ShouldPreempt(r, r.running, best) {
		r.preemptFor(best)
	}
}

// PreemptRunning forces a temporal preemption of the running invocation
// (used by FFS at epoch boundaries). It is a no-op if nothing is running
// or a drain is already in flight.
func (r *Runtime) PreemptRunning() {
	if r.running == nil || r.draining {
		return
	}
	victim := r.running
	r.draining = true
	victim.preemptAt = r.dev.Now()
	r.log("preempt", victim.Kernel, "epoch expired")
	if err := victim.exec.Preempt(r.dev.NumSMs()); err != nil {
		r.draining = false
		r.met.PreemptAborts.Inc()
	}
}

// preemptFor initiates preemption of the running invocation on behalf of
// best, choosing spatial preemption when best does not need the whole GPU.
func (r *Runtime) preemptFor(best *Invocation) {
	victim := r.running
	need := r.dev.NumSMs()
	spatial := false
	if r.cfg.EnableSpatial && r.guest == nil && best.Priority > victim.Priority {
		n := r.smsNeeded(best)
		if r.cfg.SpatialSMs > 0 && r.cfg.SpatialSMs >= n {
			n = r.cfg.SpatialSMs
		}
		// A victim that would keep no SMs is preempted temporally: one still
		// in its launch window is cancelled outright by the device, and one
		// whose departed guest's SMs are not yet reclaimed spans fewer SMs
		// than the device has.
		lo, hi := victim.exec.SMRange()
		if victim.exec.State() != gpu.StateLaunching && n < hi-lo {
			need = n
			spatial = true
		}
	}
	r.draining = true
	if spatial {
		r.pendingGuest = best
		r.dequeue(best)
	}
	victim.preemptAt = r.dev.Now()
	if r.cfg.Log != nil {
		r.log("preempt", victim.Kernel, fmt.Sprintf("for=%s sms=%d spatial=%v", best.Kernel, need, spatial))
	}
	if err := victim.exec.Preempt(need); err != nil {
		// The victim raced to completion; its completion callback will
		// reschedule.
		r.draining = false
		r.met.PreemptAborts.Inc()
		if spatial {
			r.pendingGuest = nil
			r.enqueue(best)
		}
	}
}

// dispatch starts an invocation on the SM range.
func (r *Runtime) dispatch(v *Invocation, smLo, smHi int, asGuest bool) {
	now := r.dev.Now()
	if v.state == InvWaiting {
		r.met.QueueWait.ObserveDuration(now - v.waitingSince)
	}
	if !v.reserved && v.WorkingSet > 0 {
		if err := r.dev.Reserve(v.WorkingSet); err != nil {
			panic(fmt.Sprintf("flepruntime: dispatch %s: %v (admission bug)", v.Kernel, err))
		}
		v.reserved = true
	}
	v.beginRun(now)
	v.guest = asGuest
	if v.onComplete == nil {
		// Bound once per storage: a rotated kernel is redispatched dozens of
		// times, and recycled storage launches again on any runtime.
		v.onComplete = func() { v.rt.onComplete(v) }
		v.onDrained = func(rem int) { v.rt.onDrained(v, rem) }
	}
	err := r.dev.StartIn(&v.exec, &gpu.ExecConfig{
		Profile:    v.Profile,
		TotalTasks: v.Tasks,
		DoneTasks:  v.doneTasks,
		TaskCost:   v.TaskCost,
		Persistent: true,
		L:          v.L,
		SMLo:       smLo,
		SMHi:       smHi,
		ColdStart:  v.doneTasks > 0,
		OnComplete: v.onComplete,
		OnDrained:  v.onDrained,
	})
	if err != nil {
		panic(fmt.Sprintf("flepruntime: dispatch %s: %v", v.Kernel, err))
	}
	if asGuest {
		r.guest = v
		r.met.GuestDispatches.Inc()
	} else {
		r.running = v
		r.met.Dispatches.Inc()
	}
	if r.cfg.Log != nil {
		r.log("dispatch", v.Kernel, fmt.Sprintf("id=%d sms=[%d,%d) guest=%v", v.ID, smLo, smHi, asGuest))
	}
	if r.onDispatch != nil {
		r.onDispatch.OnDispatch(r, v)
	}
}

// onComplete handles an invocation finishing all tasks.
func (r *Runtime) onComplete(v *Invocation) {
	now := r.dev.Now()
	v.chargeRun(now)
	v.state = InvFinished
	v.finishedAt = now
	v.doneTasks = v.Tasks
	if v.reserved {
		r.dev.Release(v.WorkingSet)
		v.reserved = false
	}
	wasGuest := v.guest
	if r.guest == v {
		r.guest = nil
	}
	if r.running == v {
		r.running = nil
	}
	if r.cfg.Log != nil {
		r.log("complete", v.Kernel, fmt.Sprintf("id=%d turnaround=%v Tw=%v", v.ID, v.Turnaround(), v.Tw))
	}
	if wasGuest && !r.draining && r.running != nil {
		// Reclaim the guest's SMs for the shrunk victim. Skipped while the
		// primary itself is draining: a temporal drain tears the execution
		// down (it redispatches at full width later), and a spatial drain
		// has promised the freed SMs to the pending guest.
		lo, _ := r.running.exec.SMRange()
		if lo > 0 {
			if err := r.running.exec.Expand(0); err == nil {
				r.log("expand", r.running.Kernel, "reclaimed guest SMs")
			}
		}
	}
	if v.OnFinish != nil {
		v.OnFinish(v)
	}
	// After OnFinish, so a closed-loop client's immediate resubmission
	// counts as the kernel still being present (no eviction churn).
	if r.onCompletion != nil {
		r.onCompletion.OnCompletion(r, v)
	}
	r.schedule()
	// The completion is the execution's last callback: the storage is the
	// driver's again.
	v.rt = nil
}

// onDrained handles the device reporting that a preemption drain finished.
func (r *Runtime) onDrained(v *Invocation, remaining int) {
	r.draining = false
	if remaining == 0 {
		// The victim completed before the drain; onComplete already ran.
		if g := r.pendingGuest; g != nil {
			r.pendingGuest = nil
			r.enqueue(g)
		}
		r.schedule()
		return
	}
	now := r.dev.Now()
	v.chargeRun(now)
	v.doneTasks = v.Tasks - remaining
	v.Preemptions++
	drain := now - v.preemptAt
	r.met.DrainLatency.ObserveDuration(drain)
	if r.cfg.OnPreemptDrained != nil {
		r.cfg.OnPreemptDrained(v, drain)
	}
	r.met.OverheadError.ObserveDuration((r.OverheadFor(v) - drain).Abs())
	if g := r.pendingGuest; g != nil {
		// Spatial: victim keeps running on its remaining SMs; the guest
		// takes the freed low SMs.
		r.pendingGuest = nil
		r.met.SpatialPreempts.Inc()
		lo, _ := v.exec.SMRange()
		if r.cfg.Log != nil {
			r.log("drained", v.Kernel, fmt.Sprintf("spatial remaining=%d freed=[0,%d)", remaining, lo))
		}
		r.dispatch(g, 0, lo, true)
		return
	}
	// Temporal: the victim stopped entirely; it goes back to the queue.
	r.met.TemporalPreempts.Inc()
	v.beginWait(now)
	if r.running == v {
		r.running = nil
	}
	if r.cfg.Log != nil {
		r.log("drained", v.Kernel, fmt.Sprintf("temporal remaining=%d", remaining))
	}
	r.enqueue(v)
	r.schedule()
}

// ---- HPF policy ----

// HPF is the paper's highest-priority-first policy with shortest-remaining-
// time ordering and overhead-aware preemption within a priority level
// (Figure 6, §5.2.1).
type HPF struct {
	// OverheadAware disables the preemption-overhead term when false
	// (the naive-SRT ablation). The paper's HPF sets it true.
	OverheadAware bool
}

// NewHPF returns the paper's HPF policy.
func NewHPF() *HPF { return &HPF{OverheadAware: true} }

// Before orders by (priority desc, Tr asc), so the head of the queue is
// always the next kernel to schedule.
func (h *HPF) Before(v, q *Invocation) bool {
	if v.Priority != q.Priority {
		return v.Priority > q.Priority
	}
	return v.Tr < q.Tr
}

// ShouldPreempt applies Figure 6's rules: a strictly higher priority always
// preempts; within a priority level, shortest-remaining-time preempts only
// if the running kernel's remaining time exceeds the candidate's remaining
// time plus the preemption overhead (the overhead delays every waiter).
func (h *HPF) ShouldPreempt(r *Runtime, running, best *Invocation) bool {
	if best.Priority != running.Priority {
		return best.Priority > running.Priority
	}
	running.chargeRun(r.Device().Now())
	threshold := best.Tr
	if h.OverheadAware {
		threshold += r.OverheadFor(running)
	}
	return running.Tr > threshold
}
