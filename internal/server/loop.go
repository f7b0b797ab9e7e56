package server

import (
	"math"
	"sync"
	"time"

	"flep/internal/core"
	"flep/internal/flepruntime"
	"flep/internal/metrics"
	"flep/internal/model"
	"flep/internal/replay"
)

// launchReq is one admitted (or to-be-admitted) kernel-launch request on
// its way through the daemon. The HTTP handler owns it until the enqueue
// succeeds; the event loop owns it afterwards. done is buffered so the
// loop's terminal send never blocks, even if the handler timed out and
// went away — the invocation is accounted for regardless.
type launchReq struct {
	client string
	// Launch is what the runtime is asked to run. Its Budget is the SLO
	// budget in virtual time from admission (zero = best-effort): the loop
	// turns it into an absolute virtual deadline when it stamps the
	// invocation onto the clock.
	core.Launch

	// Graph coordinates (empty for plain launches): graph is the
	// client-chosen instance id, stage this launch's name within it,
	// after its prerequisite stage names, stages the declared total, and
	// model the workload name the graph aggregates under (see deps.go).
	graph  string
	stage  string
	model  string
	after  []string
	stages int

	enqueuedReal time.Time // handler enqueue time
	admitReal    time.Time // loop admission time (queue-wait metric)

	// enqueueCounted: see countEnqueuedLocked. Guarded by Server.mu; the
	// one field the handler touches after handing the request to the loop.
	enqueueCounted bool

	done chan LaunchResult
}

// launchReqPool recycles launchReq shells (and their buffered done
// channels) across requests, so the steady-state admission path performs
// zero allocations per launch. Ownership protocol: the handler owns the
// request until tryEnqueue succeeds; afterwards only the goroutine that
// proved the loop is finished with it — by receiving the terminal result
// from done, or by having had tryEnqueue fail — may return it with
// putLaunchReq. A handler that times out or is canceled must NOT return
// it: the loop's buffered send still lands in done and the object is
// simply garbage collected (leak-safe, never reuse-unsafe).
var launchReqPool = sync.Pool{
	New: func() any { return &launchReq{done: make(chan LaunchResult, 1)} },
}

// getLaunchReq returns a zeroed launchReq with its done channel ready.
func getLaunchReq() *launchReq {
	return launchReqPool.Get().(*launchReq)
}

// putLaunchReq resets and recycles q. Callers must hold exclusive
// ownership per the protocol above, which also guarantees done is empty.
func putLaunchReq(q *launchReq) {
	done := q.done
	*q = launchReq{}
	q.done = done
	launchReqPool.Put(q)
}

// LaunchResult is the structured per-request outcome (§5.1's execution
// log, serialized). Exactly one is delivered per accepted launch.
type LaunchResult struct {
	ID       int    `json:"id"`
	Client   string `json:"client"`
	Kernel   string `json:"kernel"`
	Class    string `json:"class"`
	Priority int    `json:"priority"`
	// Device is the fleet shard that executed the invocation (0 on a
	// single-device daemon).
	Device int `json:"device"`
	// Virtual-clock timings (the simulation's currency).
	SubmittedVirtualNS int64 `json:"submitted_virtual_ns"`
	FinishedVirtualNS  int64 `json:"finished_virtual_ns"`
	TurnaroundNS       int64 `json:"turnaround_ns"`
	WaitingNS          int64 `json:"waiting_ns"`
	ExecutionNS        int64 `json:"execution_ns"`
	// NTT is turnaround normalized by the solo baseline (ANTT's per-run
	// term); zero when no baseline applies (tasks_override).
	NTT float64 `json:"ntt,omitempty"`
	// Preemptions counts realized preemptions of this invocation;
	// OverheadNS estimates their total cost (count × profiled mean).
	Preemptions       int   `json:"preemptions"`
	PreemptEstimateNS int64 `json:"preempt_overhead_estimate_ns"`
	OverheadNS        int64 `json:"overhead_ns"`
	// QueueWaitRealNS is the real time spent in the admission queue.
	QueueWaitRealNS int64 `json:"queue_wait_real_ns"`
	// SLO fields, present only for deadline-bearing launches:
	// DeadlineVirtualNS is the absolute virtual-time deadline, SLO is
	// "attained" or "missed", and SLOMarginNS is deadline minus
	// completion (negative when missed).
	DeadlineVirtualNS int64  `json:"deadline_virtual_ns,omitempty"`
	SLO               string `json:"slo,omitempty"`
	SLOMarginNS       int64  `json:"slo_margin_ns,omitempty"`
	// Canceled is set when a graph stage was canceled before admission —
	// a prerequisite failed or the daemon drained while it was parked
	// (HTTP 409). The stage never entered the exactly-once ledger.
	Canceled string `json:"canceled,omitempty"`
	// Err is set when the runtime rejected the invocation (HTTP 422).
	Err string `json:"error,omitempty"`
}

// Run is the result as the record it was built from, for a client that
// tallies the answers it got. The wire carries NTT, not the baseline
// behind it: rounding turnaround/NTT to whole nanoseconds recovers the
// baseline exactly (the quotient is off by rounding error only, far less
// than half a nanosecond), so Run().NTT() is NTT bit for bit.
func (r *LaunchResult) Run() metrics.KernelRun {
	run := metrics.KernelRun{
		Name: r.Kernel, Turnaround: time.Duration(r.TurnaroundNS), Waiting: time.Duration(r.WaitingNS),
		Preemptions: r.Preemptions, Margin: time.Duration(r.SLOMarginNS), Tracked: r.SLO != "",
	}
	if r.NTT > 0 {
		run.Alone = time.Duration(math.Round(float64(r.TurnaroundNS) / r.NTT))
	}
	return run
}

// ctrlKind is work a handler runs on the loop goroutine: a pause or a
// resume, or an edit or read of loop-owned state such as the dependency
// table (deps.go).
type ctrlKind func(st *loopState)

func ctrlPause(st *loopState) {
	if !st.draining { // a draining daemon must keep making progress
		st.paused = true
	}
}

func ctrlResume(st *loopState) { st.paused = false }

type ctrlMsg struct {
	kind ctrlKind
	ack  chan struct{}
}

// ctrl runs kind on the loop goroutine and returns once it has run. It
// runs exactly once when ctrl returns nil and never when it returns
// ErrStopped: ctrlCh is unbuffered, so a send that succeeds has handed m
// to the loop, and every receive runs it (handleCtrl) before the loop
// looks at anything else.
func (s *Server) ctrl(kind ctrlKind) error {
	m := ctrlMsg{kind: kind, ack: make(chan struct{})}
	s.signals.Add(1) // before the send: see Server.signals
	select {
	case s.ctrlCh <- m:
	case <-s.loopDone:
		return ErrStopped
	}
	<-m.ack
	return nil
}

// onLoop runs f on the loop goroutine, or here once the loop has exited:
// by then nothing else touches loop-owned state, and the dependency table
// is empty (the loop drained it on exit).
func (s *Server) onLoop(f func()) {
	if s.ctrl(func(*loopState) { f() }) != nil {
		f()
	}
}

// tryEnqueue admits a launch into the bounded queue without blocking.
// The RLock pairs with Shutdown's Lock: once draining is set, no new
// send can be in flight, so the loop's final queue length is stable.
//
// SLO-aware shedding: while deadline-bearing work is outstanding,
// best-effort launches stop being admitted once the queue crowds past
// the cost-aware best-effort share (beLimit), so deadline work always
// finds queue headroom before latency-critical launches start missing.
// With no deadlines in play the full queue belongs to best-effort work
// and admission behaves exactly as before.
//
// The shed decision is atomic with admission: a best-effort launch must
// CAS a slot reservation into s.queued under the beLimit before it may
// send, so N racing best-effort handlers cannot all read a stale queue
// length and collectively overshoot the cost-aware share. The loop
// releases the reservation when it pops the launch (admit); a failed
// channel send releases it immediately.
func (s *Server) tryEnqueue(q *launchReq) error {
	s.acceptMu.RLock()
	defer s.acceptMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	if q.Budget == 0 {
		for {
			n := s.queued.Load()
			if s.lcOutstanding.Load() > 0 && n >= int64(s.beLimit) {
				return ErrBestEffortShed
			}
			if s.queued.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		s.queued.Add(1)
	}
	select {
	case s.submitCh <- q:
		if q.Budget > 0 {
			s.lcOutstanding.Add(1)
		}
		return nil
	default:
		s.queued.Add(-1)
		return ErrQueueFull
	}
}

// loopState is the event loop's own view of pause, drain and pacing.
type loopState struct {
	paused, draining bool
	stop             <-chan struct{} // nil once draining
	// paceLeft is the unserved remainder of the current pace interval. A
	// Pause freezes it and it is served after Resume, so a pause/resume
	// storm cannot advance virtual time faster than the pace floor.
	paceLeft time.Duration
}

// loop is the daemon's scheduling thread. It is the only goroutine that
// touches the engine, device, runtime, policy, core.System, the
// pending-dependency table and the trace log after startup; everything
// reaches it through submitCh/ctrlCh. Each iteration first absorbs every
// pending arrival (stamping them onto the virtual clock in arrival order),
// then advances the simulation by one event, unless it is paused or owes
// pace time; then, as when the simulator is idle, it blocks in wait.
func (s *Server) loop() {
	defer close(s.loopDone)
	if s.cfg.Recorder != nil {
		// Runs before loopDone closes: a drained daemon's trace is readable
		// the moment Shutdown returns, even if nobody calls Close.
		defer func() { _ = s.cfg.Recorder.Flush() }()
	}
	st := &loopState{stop: s.stopCh}

	for {
		// Absorb everything already pending, without blocking — and without
		// a select per step when nothing can be: every sender registers in
		// queued or signals before it sends. One that registers just after
		// the look is seen a step later, and wait selects on the channels
		// themselves, so no wake-up is lost. Arrivals drain into the
		// reusable batch and are admitted in one pass — submitCh is FIFO,
		// so batch order is arrival order and the virtual-clock stamping
		// (hence the replay trace) is byte-identical to one-at-a-time
		// admission.
	absorb:
		for s.queued.Load() > 0 || s.signals.Load() > 0 {
			submitCh := s.submitCh
			if st.paused {
				// Pause has been acknowledged: a launch sent from here on
				// must stay queued until Resume, including for the rest of
				// the pass the pause arrived in.
				submitCh = nil
			}
			select {
			case q := <-submitCh:
				s.batch = append(s.batch, q)
			case m := <-s.ctrlCh:
				s.handleCtrl(m, st)
			case <-st.stop:
				s.beginDrain(st)
			default:
				break absorb
			}
		}
		s.admitAll()
		s.admitReleased()

		if st.paused || st.paceLeft > 0 {
			s.wait(st)
			continue
		}
		if s.stack.Eng.Step() {
			s.vnow.Store(int64(s.stack.Eng.Now()))
			s.steps.Add(1)
			st.paceLeft = s.cfg.Pace
			continue
		}

		// Simulator idle: nothing left to run.
		if st.draining && len(s.submitCh) == 0 && len(s.depReady) == 0 {
			// Parked graph stages can never be released now — the engine is
			// idle, the queue is empty, and admission is closed — so cancel
			// them deterministically instead of leaving handlers to time out.
			s.deps.Drain("daemon draining")
			return
		}
		s.wait(st)
	}
}

// wait is the loop's one blocking point: it serves one launch, control
// message or stop request, or the end of the pace interval, and returns.
// While paused, arrivals pile up in submitCh (backpressure) and no pace
// time passes; otherwise a launch is admitted at once, so paced operation
// keeps the admission latency low. The elapsed time is taken off paceLeft
// whatever woke the loop, so a control message that leaves it running
// does not cut the interval short.
func (s *Server) wait(st *loopState) {
	submitCh := s.submitCh
	var paceEnd <-chan time.Time
	var timer *time.Timer
	var start time.Time
	if st.paused {
		submitCh = nil
	} else if st.paceLeft > 0 {
		start = time.Now()
		timer = time.NewTimer(st.paceLeft)
		paceEnd = timer.C
	}
	select {
	case q := <-submitCh:
		s.admit(q)
	case m := <-s.ctrlCh:
		s.handleCtrl(m, st)
	case <-st.stop:
		s.beginDrain(st)
	case <-paceEnd:
	}
	if timer != nil {
		timer.Stop()
		st.paceLeft = max(0, st.paceLeft-time.Since(start))
	}
}

// beginDrain takes the stop request, unparking the loop if it was paused
// and forgiving the current pace interval.
func (s *Server) beginDrain(st *loopState) {
	s.signals.Add(-1)
	st.draining, st.stop = true, nil
	st.paused, st.paceLeft = false, 0
	s.paused.Store(false)
}

func (s *Server) handleCtrl(m ctrlMsg, st *loopState) {
	s.signals.Add(-1)
	m.kind(st)
	s.paused.Store(st.paused)
	close(m.ack)
}

// admitAll stamps and submits every launch drained into the batch, in
// arrival order, sharing one wall-clock read across the whole pass.
// Runs on the loop goroutine.
func (s *Server) admitAll() {
	if len(s.batch) == 0 {
		return
	}
	s.met.AdmitBatches.Inc()
	s.met.AdmitBatchSize.Observe(float64(len(s.batch)))
	now := time.Now()
	for i, q := range s.batch {
		q.admitReal = now
		s.admit(q)
		s.batch[i] = nil // the loop may not retain a reference past admission
	}
	s.batch = s.batch[:0]
}

// admit stamps the request onto the virtual clock and submits it to the
// runtime. Runs on the loop goroutine.
func (s *Server) admit(q *launchReq) {
	s.queued.Add(-1)
	if q.admitReal.IsZero() {
		q.admitReal = time.Now()
	}
	s.met.AdmissionWait.Observe(q.admitReal.Sub(q.enqueuedReal).Seconds())
	// The SLO clock starts here, at admission.
	v, err := s.stack.NewInvocation(q.Launch)
	// Capture the engine position before Submit: the trace must describe
	// the state the launch arrived into, and Submit's own scheduling may
	// not step the engine (steps only advance in the loop), but the
	// invariant "step exactly Step events, then submit" depends on
	// reading the counter at the admission boundary.
	atVirtual := s.stack.Eng.Now()
	atStep := s.steps.Load()
	if err == nil {
		v.OnFinish = func(fv *flepruntime.Invocation) { s.complete(q, fv) }
		err = s.stack.RT.Submit(v)
	}
	if err != nil {
		if q.Budget > 0 {
			s.lcOutstanding.Add(-1)
		}
		s.countEnqueued(q)
		s.count(outSubmitError, q.client)
		if q.graph != "" {
			// A failed stage dooms its descendants: cancel parked dependents
			// now so the graph's outcome is decided deterministically.
			s.deps.Fail(q.key(), q.stage)
		}
		//flepvet:allow blockingsend -- q.done is per-request with capacity 1 (http.go) and sees exactly one send
		q.done <- LaunchResult{
			Client: q.client, Kernel: q.Bench.Name, Class: q.Class.String(),
			Priority: q.Priority, Device: s.device, Err: err.Error(),
		}
		return
	}
	if rec := s.cfg.Recorder; rec != nil {
		// Record only successful admissions: the trace is the stream of
		// launches the runtime accepted, which is exactly what a replay
		// re-submits (a replay-side rejection is then a divergence).
		rec.Record(replay.Record{
			At:            int64(atVirtual),
			Step:          atStep,
			Device:        s.device,
			Client:        q.client,
			Bench:         q.Bench.Name,
			Class:         q.Class.String(),
			Priority:      q.Priority,
			Weight:        q.Weight,
			TasksOverride: q.TasksOverride,
			Grid:          v.Tasks,
			Block:         q.Bench.ThreadsPerCTA,
			WorkingSet:    v.WorkingSet,
			Te:            int64(v.Te),
			DeadlineNS:    int64(q.Budget),
			SLOClass:      recordSLOClass(q.Budget),
			Model:         q.model,
			GraphID:       q.graph,
			Stage:         q.stage,
			After:         q.after,
		})
	}
	s.vnow.Store(int64(s.stack.Eng.Now()))
}

// recordSLOClass names the SLO tier for trace records. Best-effort maps
// to the empty string so deadline-free traces stay byte-identical to
// those written before the SLO tier existed.
func recordSLOClass(deadline time.Duration) string {
	if deadline > 0 {
		return "latency"
	}
	return ""
}

// complete delivers the terminal result for a finished invocation. Runs
// on the loop goroutine (from the runtime's OnFinish hook).
func (s *Server) complete(q *launchReq, fv *flepruntime.Invocation) {
	s.vnow.Store(int64(s.stack.Dev.Now()))
	run := s.stack.Finished(q.Launch, fv)
	a := s.sys.Artifacts(q.Bench.Name)
	res := LaunchResult{
		ID:     fv.ID,
		Client: q.client, Kernel: fv.Kernel, Class: q.Class.String(),
		Priority:           fv.Priority,
		Device:             s.device,
		SubmittedVirtualNS: int64(fv.SubmittedAt()),
		FinishedVirtualNS:  int64(fv.FinishedAt()),
		TurnaroundNS:       int64(run.Turnaround),
		WaitingNS:          int64(run.Waiting),
		ExecutionNS:        int64(run.Turnaround - run.Waiting),
		NTT:                run.NTT(),
		Preemptions:        run.Preemptions,
		PreemptEstimateNS:  int64(a.PreemptOverhead),
		OverheadNS:         int64(a.PreemptOverhead) * int64(run.Preemptions),
		QueueWaitRealNS:    q.admitReal.Sub(q.enqueuedReal).Nanoseconds(),
	}
	if run.Alone > 0 {
		s.met.NTT.Observe(res.NTT)
	}
	if run.Tracked {
		res.DeadlineVirtualNS = int64(fv.Deadline)
		res.SLOMarginNS = int64(run.Margin)
		s.met.SLOMargin.Observe(run.Margin.Seconds())
		// The verdict's two names are written here and nowhere else.
		if run.Attained() {
			res.SLO = "attained"
			s.met.SLOAttained.Inc()
		} else {
			res.SLO = "missed"
			s.met.SLOMissed.Inc()
		}
		s.lcOutstanding.Add(-1)
	}
	// Price one queue slot for Retry-After: EWMA of the real time between
	// consecutive completions (the pipeline's observed drain rate). Only
	// this goroutine writes; rejected handlers read the atomic.
	nowReal := time.Now().UnixNano()
	if last := s.lastCompleteNS.Swap(nowReal); last != 0 {
		delta := nowReal - last
		if old := s.svcEWMANS.Load(); old == 0 {
			s.svcEWMANS.Store(delta)
		} else {
			s.svcEWMANS.Store(old + (delta-old)/4)
		}
	}
	//flepvet:allow sharedlock -- bounded counter bump; handlers only copy under s.mu, never block
	s.mu.Lock()
	s.countEnqueuedLocked(q)
	sess := s.countLocked(outCompleted, q.client)
	s.runs.Add(run)
	if sess != nil {
		sess.Runs.Add(run)
		sess.LastFinishVirtual = fv.FinishedAt()
	}
	s.mu.Unlock()
	if q.graph != "" {
		// Fold the stage into its graph and collect newly-unblocked
		// dependents before the handler learns the result, so a client that
		// reacts instantly still observes its dependents as released.
		sub, fin := time.Duration(res.SubmittedVirtualNS), time.Duration(res.FinishedVirtualNS)
		if m, ok := s.deps.Done(q.key(), q.stage, sub, fin); ok {
			s.countModel(depEvent{Kind: model.StageCompleted, Model: m}, &run)
		}
	}
	//flepvet:allow blockingsend -- q.done is per-request with capacity 1 (http.go) and sees exactly one send
	q.done <- res
}
