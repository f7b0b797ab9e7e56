package flepruntime

import (
	"fmt"
	"slices"
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
// An epoch is never shorter than O_i plus one task of kernel i, so that
// every turn banks at least one task. An epoch belongs to a client
// (kernel), not to one invocation: a client whose invocation completes
// mid-epoch keeps the GPU for its next invocation until the epoch expires.
type FFS struct {
	// maxOverhead is the user's tolerated throughput loss (e.g. 0.10) and
	// weights maps priority level to its share weight (missing levels
	// weigh their priority value, min 1). Both are fixed at construction,
	// so only the tenant table can move the epoch base.
	maxOverhead float64
	weights     map[int]float64

	// tenants holds one entry per distinct kernel, ordered by name: its
	// requested share weight and, once it has been dispatched, the overhead
	// and weight the epoch computation sums. A tenant is evicted when its
	// last invocation completes (OnCompletion), so a departed kernel stops
	// inflating baseEpoch's ΣO_i/ΣW_i sums for the daemon's lifetime. The
	// sums are taken in name order: float addition in map-iteration order
	// gave an epoch length that differed in its last bit from run to run.
	tenants []ffsTenant
	// base is baseEpoch over the table as it stands. It is recomputed only
	// when a term of the sum changes: a tenant's first dispatch, a dispatch
	// whose overhead or weight differs from the stored one, an eviction.
	// The recompute sums in name order like any other, so every epoch is
	// the one a fresh baseEpoch per dispatch would give, bit for bit.
	base time.Duration
	// curKernel owns the current epoch, which ends at epochEnd.
	curKernel string
	epochEnd  time.Duration
	epochSeq  int
	// epochTimer is the armed end-of-epoch event. A new epoch cancels the
	// previous epoch's timer outright: relying on the epochSeq no-op alone
	// leaves every superseded timer queued in the engine until its
	// (possibly far-future) deadline, so a busy daemon accretes dead
	// events and its idleness signal (Engine.Pending) never clears. The
	// policy is the timer's handler (Fire) with epochSeq as its argument; rt
	// is the runtime it was armed on.
	epochTimer sim.Timer
	rt         *Runtime
	// lastEpochLen is the most recently computed epoch length (tests use
	// it to assert the length returns to baseline after a tenant departs).
	lastEpochLen time.Duration
}

type ffsTenant struct {
	kernel string
	// requested is the tenant's own share weight (SetKernelWeight; 0 = none).
	requested float64
	// dispatched marks a tenant that has run; only those count in the sums.
	dispatched bool
	overhead   time.Duration
	weight     float64
}

// tenant returns the position of kernel's entry in f.tenants, or the
// position it would be inserted at. The table is a handful of entries; a
// present tenant, the common case, is found by equality, which rejects a
// name of another length without comparing bytes.
func (f *FFS) tenant(kernel string) (i int, ok bool) {
	for i := range f.tenants {
		if f.tenants[i].kernel == kernel {
			return i, true
		}
	}
	for i < len(f.tenants) && f.tenants[i].kernel < kernel {
		i++
	}
	return i, false
}

// ensureTenant returns kernel's entry, inserting an empty one if needed.
func (f *FFS) ensureTenant(kernel string) *ffsTenant {
	i, ok := f.tenant(kernel)
	if !ok {
		f.tenants = slices.Insert(f.tenants, i, ffsTenant{kernel: kernel})
	}
	return &f.tenants[i]
}

// NewFFS returns an FFS policy with the given overhead budget.
func NewFFS(maxOverhead float64) *FFS {
	if maxOverhead <= 0 {
		maxOverhead = 0.10
	}
	return &FFS{maxOverhead: maxOverhead}
}

// SetKernelWeight records a tenant kernel's share weight. It overrides the
// priority-level weights table for that kernel and is dropped automatically
// when the tenant departs.
func (f *FFS) SetKernelWeight(kernel string, w float64) {
	if w > 0 {
		f.ensureTenant(kernel).requested = w
	}
}

// weight returns the share weight of an invocation of tenant t.
func (f *FFS) weight(t *ffsTenant, v *Invocation) float64 {
	if t.requested > 0 {
		return t.requested
	}
	if w, ok := f.weights[v.Priority]; ok && w > 0 {
		return w
	}
	if v.Priority >= 1 {
		return float64(v.Priority)
	}
	return 1
}

// Before implements Policy: arrival (round-robin) order.
func (f *FFS) Before(*Invocation, *Invocation) bool { return false }

// Choose prefers the epoch owner's next invocation while its epoch is open;
// otherwise the round-robin head goes.
func (f *FFS) Choose(r *Runtime) *Invocation {
	if f.curKernel != "" && r.Device().Now() < f.epochEnd {
		for _, v := range r.queue {
			if v.Kernel == f.curKernel {
				return v
			}
		}
	}
	return nil
}

// ShouldPreempt implements Policy: FFS never preempts on arrival; epochs
// expire via the dispatch timer.
func (f *FFS) ShouldPreempt(*Runtime, *Invocation, *Invocation) bool { return false }

// baseEpoch computes the minimum T satisfying the overhead constraint over
// the kernels seen so far.
func (f *FFS) baseEpoch() time.Duration {
	var sumO time.Duration
	sumW := 0.0
	for _, t := range f.tenants {
		if t.dispatched {
			sumO += t.overhead
			sumW += t.weight
		}
	}
	if sumW == 0 {
		return 0
	}
	return time.Duration(float64(sumO) / (f.maxOverhead * sumW))
}

// OnDispatch opens a new epoch when the GPU changes hands; dispatches of
// the epoch owner's follow-up invocations inherit the running epoch.
func (f *FFS) OnDispatch(r *Runtime, v *Invocation) {
	t := f.ensureTenant(v.Kernel)
	weight, overhead := f.weight(t, v), r.OverheadFor(v)
	if !t.dispatched || t.overhead != overhead || t.weight != weight {
		t.dispatched, t.overhead, t.weight = true, overhead, weight
		f.base = f.baseEpoch()
	}
	now := r.Device().Now()
	if v.Kernel == f.curKernel && now < f.epochEnd {
		return // continuation within the owner's epoch
	}
	// T is a minimum (a longer epoch only lowers the overhead share), and a
	// drain discards the fraction of a task in flight: an epoch that cannot
	// fit a relaunch plus one whole task banks nothing once fewer tasks
	// remain than workers, and the kernel rotates on them forever. A real
	// persistent CTA finishes its task before it polls the flag (§4).
	epoch := max(time.Duration(float64(f.base)*weight), overhead+v.TaskCost)
	if f.epochTimer.Pending() && f.epochTimer.When() > now {
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
	f.rt = r
	f.epochTimer = r.Device().Engine().AtFire(f.epochEnd, f, 0, f.epochSeq)
	r.met.EpochLength.ObserveDuration(epoch)
	f.lastEpochLen = epoch
}

// Fire implements sim.Handler for the epoch timer: it rotates the GPU to the
// next client when the epoch armed as seq expires.
func (f *FFS) Fire(_, seq int) {
	if seq != f.epochSeq {
		return // a newer epoch superseded this timer
	}
	r := f.rt
	owner := f.curKernel
	running := r.Running()
	if running == nil || running.Kernel != owner || running.State() != InvRunning {
		f.curKernel = ""
		r.schedule()
		return
	}
	if r.next() == nil {
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
	i, ok := f.tenant(v.Kernel)
	if !ok || !f.tenants[i].dispatched {
		return
	}
	for _, q := range r.queue {
		if q.Kernel == v.Kernel {
			return
		}
	}
	for _, x := range []*Invocation{r.running, r.guest, r.pendingGuest} {
		if x != nil && x.Kernel == v.Kernel {
			return
		}
	}
	f.tenants = slices.Delete(f.tenants, i, i+1)
	f.base = f.baseEpoch()
	r.met.Evictions.Inc()
	if f.curKernel == v.Kernel {
		// The departed tenant owned the open epoch; close it so the next
		// dispatch starts a fresh, correctly sized epoch immediately
		// instead of inheriting the dead owner's preference window.
		f.curKernel = ""
		f.epochSeq++ // invalidate the armed timer
		if f.epochTimer.Pending() &&
			f.epochTimer.When() > r.Device().Now() {
			f.epochTimer.Cancel()
			r.met.TimersCanceled.Inc()
		}
	}
}
