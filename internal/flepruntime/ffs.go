package flepruntime

import (
	"fmt"
	"time"

	"flep/internal/sim"
)

// FFS is the paper's fairness-first policy (§5.2.2): weighted round-robin
// where kernel i runs for an epoch of length T×W_i per round, with T chosen
// as the minimum satisfying the overhead constraint
//
//	ΣO_i / (T ΣW_i) ≤ max_overhead
//
// so that context-switch (preemption) cost never exceeds the user's budget.
// An epoch belongs to a client (kernel), not to one invocation: a client
// whose invocation completes mid-epoch keeps the GPU for its next
// invocation until the epoch expires.
type FFS struct {
	// MaxOverhead is the user's tolerated throughput loss (e.g. 0.10).
	MaxOverhead float64
	// Weights maps priority level to its share weight. Missing levels
	// weigh their priority value (min 1).
	Weights map[int]float64
	// kernelWeights maps a tenant kernel to its requested share weight.
	// Per-kernel weights take precedence over the priority-level table, so
	// two tenants at the same priority keep distinct shares instead of
	// clobbering one slot. Entries are evicted with the kernel's overhead
	// record when the tenant departs (OnCompletion).
	kernelWeights map[string]float64

	rt    *Runtime
	queue []*Invocation
	// seen tracks each distinct kernel's overhead and weight for the
	// epoch computation. Kernels are evicted when their last invocation
	// completes (OnCompletion), so a departed tenant stops inflating
	// baseEpoch's ΣO_i/ΣW_i sums for the daemon's lifetime.
	seen map[string]ffsKernel
	// curKernel owns the current epoch, which ends at epochEnd.
	curKernel string
	epochEnd  time.Duration
	epochSeq  int
	// epochTimer is the armed end-of-epoch event. A new epoch cancels the
	// previous epoch's timer outright: relying on the epochSeq no-op alone
	// leaves every superseded timer queued in the engine until its
	// (possibly far-future) deadline, so a busy daemon accretes dead
	// events and its idleness signal (Engine.Pending) never clears.
	epochTimer *sim.Event
	// lastEpochLen is the most recently computed epoch length (tests use
	// it to assert the length returns to baseline after a tenant departs).
	lastEpochLen time.Duration
}

type ffsKernel struct {
	overhead time.Duration
	weight   float64
}

// NewFFS returns an FFS policy with the given overhead budget.
func NewFFS(maxOverhead float64) *FFS {
	if maxOverhead <= 0 {
		maxOverhead = 0.10
	}
	return &FFS{MaxOverhead: maxOverhead, seen: map[string]ffsKernel{}}
}

// Name implements Policy.
func (f *FFS) Name() string { return "FFS" }

// bind gives the policy its runtime (called by Runtime's constructor).
func (f *FFS) bind(r *Runtime) { f.rt = r }

// SetKernelWeight records a tenant kernel's share weight. It overrides the
// priority-level Weights table for that kernel and is dropped automatically
// when the tenant departs.
func (f *FFS) SetKernelWeight(kernel string, w float64) {
	if w <= 0 {
		return
	}
	if f.kernelWeights == nil {
		f.kernelWeights = map[string]float64{}
	}
	f.kernelWeights[kernel] = w
}

// KernelWeight reports the per-kernel share weight, if one is set.
func (f *FFS) KernelWeight(kernel string) (float64, bool) {
	w, ok := f.kernelWeights[kernel]
	return w, ok
}

// weight returns the share weight of an invocation.
func (f *FFS) weight(v *Invocation) float64 {
	if w, ok := f.kernelWeights[v.Kernel]; ok && w > 0 {
		return w
	}
	if w, ok := f.Weights[v.Priority]; ok && w > 0 {
		return w
	}
	if v.Priority >= 1 {
		return float64(v.Priority)
	}
	return 1
}

// Enqueue appends in FIFO (round-robin) order.
func (f *FFS) Enqueue(v *Invocation) { f.queue = append(f.queue, v) }

// Peek implements Policy: within an open epoch, the epoch owner's next
// invocation goes first; otherwise the round-robin head.
func (f *FFS) Peek() *Invocation {
	if len(f.queue) == 0 {
		return nil
	}
	if f.rt != nil && f.curKernel != "" && f.rt.Device().Now() < f.epochEnd {
		for _, v := range f.queue {
			if v.Kernel == f.curKernel {
				return v
			}
		}
	}
	return f.queue[0]
}

// Dequeue implements Policy.
func (f *FFS) Dequeue(v *Invocation) {
	for i, q := range f.queue {
		if q == v {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			return
		}
	}
}

// ShouldPreempt implements Policy: FFS never preempts on arrival; epochs
// expire via the dispatch timer.
func (f *FFS) ShouldPreempt(*Runtime, *Invocation, *Invocation) bool { return false }

// baseEpoch computes the minimum T satisfying the overhead constraint over
// the kernels seen so far.
func (f *FFS) baseEpoch() time.Duration {
	var sumO time.Duration
	sumW := 0.0
	for _, k := range f.seen {
		sumO += k.overhead
		sumW += k.weight
	}
	if sumW == 0 {
		return 0
	}
	return time.Duration(float64(sumO) / (f.MaxOverhead * sumW))
}

// OnDispatch opens a new epoch when the GPU changes hands; dispatches of
// the epoch owner's follow-up invocations inherit the running epoch.
func (f *FFS) OnDispatch(r *Runtime, v *Invocation) {
	f.seen[v.Kernel] = ffsKernel{overhead: r.OverheadFor(v), weight: f.weight(v)}
	now := r.Device().Now()
	if v.Kernel == f.curKernel && now < f.epochEnd {
		return // continuation within the owner's epoch
	}
	epoch := time.Duration(float64(f.baseEpoch()) * f.weight(v))
	if epoch <= 0 {
		return
	}
	if f.epochTimer != nil && !f.epochTimer.Canceled() && f.epochTimer.When() > now {
		// The previous epoch's timer is superseded; cancel it so it never
		// sits dead in the event queue.
		f.epochTimer.Cancel()
		r.met.TimersCanceled.Inc()
	}
	if v.Kernel == f.curKernel && f.curKernel != "" {
		r.met.EpochExtends.Inc() // sole tenant renewed its expired epoch
	} else {
		r.met.EpochsOpened.Inc()
	}
	f.curKernel = v.Kernel
	f.epochEnd = now + epoch
	f.epochSeq++
	seq := f.epochSeq
	f.epochTimer = r.Device().Engine().At(f.epochEnd, func() { f.onEpochEnd(r, seq) })
	r.met.EpochLength.Observe(epoch.Seconds())
	f.lastEpochLen = epoch
}

// onEpochEnd rotates the GPU to the next client when the epoch expires.
func (f *FFS) onEpochEnd(r *Runtime, seq int) {
	if seq != f.epochSeq {
		return // a newer epoch superseded this timer
	}
	owner := f.curKernel
	running := r.Running()
	if running == nil || running.Kernel != owner || running.State() != InvRunning {
		f.curKernel = ""
		r.schedule()
		return
	}
	if f.Peek() == nil {
		// Nobody else waiting: extend the owner's epoch in place.
		// curKernel is left set so OnDispatch can tell an extension from a
		// rotation.
		f.OnDispatch(r, running)
		return
	}
	f.curKernel = ""
	if r.cfg.Log != nil {
		r.log("epoch", owner, fmt.Sprintf("expired at %v", r.Device().Now()))
	}
	r.PreemptRunning()
}

// OnCompletion implements the runtime's completion hook: when a kernel's
// last invocation finishes and nothing of that kernel is queued, running,
// or pending as a spatial guest, the kernel has departed — drop it from
// the overhead table so future epochs are sized for the tenants actually
// present. Without the eviction, baseEpoch keeps summing departed
// kernels' overheads and the epoch length inflates monotonically over the
// daemon's lifetime.
func (f *FFS) OnCompletion(r *Runtime, v *Invocation) {
	if _, ok := f.seen[v.Kernel]; !ok {
		return
	}
	for _, q := range f.queue {
		if q.Kernel == v.Kernel {
			return
		}
	}
	for _, x := range []*Invocation{r.running, r.guest, r.pendingGuest} {
		if x != nil && x.Kernel == v.Kernel {
			return
		}
	}
	delete(f.seen, v.Kernel)
	delete(f.kernelWeights, v.Kernel)
	r.met.Evictions.Inc()
	if f.curKernel == v.Kernel {
		// The departed tenant owned the open epoch; close it so the next
		// dispatch starts a fresh, correctly sized epoch immediately
		// instead of inheriting the dead owner's preference window.
		f.curKernel = ""
		f.epochSeq++ // invalidate the armed timer
		if f.epochTimer != nil && !f.epochTimer.Canceled() &&
			f.epochTimer.When() > r.Device().Now() {
			f.epochTimer.Cancel()
			r.met.TimersCanceled.Inc()
		}
	}
}

// Queued implements Policy.
func (f *FFS) Queued() []*Invocation { return f.queue }

// Pending returns the queued invocation count (for tests).
func (f *FFS) Pending() int { return len(f.queue) }
