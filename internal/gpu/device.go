package gpu

import (
	"fmt"
	"math"
	"time"

	"flep/internal/sim"
)

// EventKind classifies observer events.
type EventKind int

// Observer event kinds.
const (
	EvLaunch EventKind = iota
	EvResident
	EvComplete
	EvPreemptRequest
	EvDrained
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvLaunch:
		return "launch"
	case EvResident:
		return "resident"
	case EvComplete:
		return "complete"
	case EvPreemptRequest:
		return "preempt"
	case EvDrained:
		return "drained"
	default:
		return "?"
	}
}

// Event is one observable device event, for tracing.
type Event struct {
	Time   time.Duration
	Kind   EventKind
	Kernel string
	// SMLo, SMHi give the execution's SM range at event time.
	SMLo, SMHi int
	// Remaining is the task count still to process (Complete: 0).
	Remaining int
}

// Device is the GPU model. It hosts concurrent executions, integrates
// their fluid task progress, and realizes preemption drains.
type Device struct {
	eng *sim.Engine
	par Params

	// Observer, if set, receives every device event (for traces).
	Observer func(Event)

	execs    []*Exec
	wake     sim.Timer // earliest completion/deadline event; inert once fired or cancelled
	reserved int64     // device memory currently reserved
	met      DeviceMetrics

	// par's per-task latencies in seconds, converted once for every Start.
	atomicSecs, pinnedSecs float64
}

// Reserve claims bytes of device memory (a kernel's working set). It fails
// when the capacity would be exceeded; a zero-capacity device (params
// without MemoryBytes) accepts everything.
func (d *Device) Reserve(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpu: negative reservation %d", bytes)
	}
	if d.par.MemoryBytes > 0 && d.reserved+bytes > d.par.MemoryBytes {
		return fmt.Errorf("gpu: out of device memory: %d + %d > %d",
			d.reserved, bytes, d.par.MemoryBytes)
	}
	d.reserved += bytes
	d.met.MemoryReserved.Set(float64(d.reserved))
	return nil
}

// Release returns a previous reservation.
func (d *Device) Release(bytes int64) {
	d.reserved -= bytes
	if d.reserved < 0 {
		panic("gpu: memory release exceeds reservations")
	}
	d.met.MemoryReserved.Set(float64(d.reserved))
}

// MemoryFree returns the unreserved device memory (capacity when the
// device has no configured limit).
func (d *Device) MemoryFree() int64 {
	if d.par.MemoryBytes <= 0 {
		return 1 << 62
	}
	return d.par.MemoryBytes - d.reserved
}

// New builds a device on the given simulation engine.
func New(eng *sim.Engine, par Params) *Device {
	if par.Limits.NumSMs <= 0 {
		panic("gpu: params without device limits")
	}
	return &Device{
		eng: eng, par: par,
		atomicSecs: par.TaskAtomicLatency.Seconds(),
		pinnedSecs: par.PinnedReadLatency.Seconds(),
	}
}

// Params returns the device's calibration constants.
func (d *Device) Params() Params { return d.par }

// NumSMs returns the SM count.
func (d *Device) NumSMs() int { return d.par.Limits.NumSMs }

// Now returns the current virtual time.
func (d *Device) Now() time.Duration { return d.eng.Now() }

// Engine exposes the simulation engine for callers that schedule their own
// events (arrival processes, runtime timers).
func (d *Device) Engine() *sim.Engine { return d.eng }

// ExecState is an execution's lifecycle state.
type ExecState int

// Execution states.
const (
	StateLaunching ExecState = iota // waiting out launch latency
	StateRunning
	StateStopped // fully preempted or killed; resumable via a new Start
	StateDone
)

// String names the state.
func (s ExecState) String() string {
	switch s {
	case StateLaunching:
		return "launching"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	case StateDone:
		return "done"
	default:
		return "?"
	}
}

// ExecConfig describes one execution to start.
type ExecConfig struct {
	Profile *KernelProfile
	// TotalTasks is the original grid size; DoneTasks the tasks already
	// completed by earlier (preempted) runs of the same invocation.
	TotalTasks int
	DoneTasks  int
	// TaskCost is the per-task base duration at full occupancy.
	TaskCost time.Duration
	// Persistent marks a FLEP-transformed execution: it pays poll and
	// atomic overheads and supports Preempt.
	Persistent bool
	// ColdStart marks a resume after preemption: the launch additionally
	// pays the device's ColdRestart warm-up penalty.
	ColdStart bool
	// L is the amortizing factor (ignored unless Persistent).
	L int
	// SMLo, SMHi place the execution on SMs [SMLo, SMHi).
	SMLo, SMHi int
	// OnComplete fires when the last task finishes.
	OnComplete func()
	// OnDrained fires exactly once per Preempt call, when the requested
	// SMs are free. remaining is the task count still to process (0 if
	// the execution completed before or during the drain).
	OnDrained func(remaining int)
}

// Exec is one execution: its starter's handle and the storage it runs in.
// Start's storage is never reused, so its handle stays valid, and inert once
// the execution is over; StartIn's is the caller's to start into again, and a
// pointer kept across that is a handle to the new run (DESIGN.md §3). An Exec
// is its own event handler and must not be copied once started.
type Exec struct {
	dev *Device
	cfg ExecConfig
	// run counts the Starts into this storage; hops the zero-delay OnDrained
	// and OnComplete events queued and not yet delivered.
	run, hops int

	state    ExecState
	done     float64 // fluid completed-task count
	rate     float64 // tasks per second at current placement
	lastSync time.Duration
	smLo     int // current SM range (shrinks under spatial preemption)
	smHi     int
	// Placement (see place): resident CTAs in total, and per SM — the first
	// extra SMs of the range hold perSM+1, the rest perSM.
	resident, perSM, extra int
	taskSecs, pollSecs     float64 // perTask's constants, converted once at Start

	draining   bool
	drainYield int // SMs to free, counted from smLo
	drainEv    sim.Timer
	launchEv   sim.Timer
}

// Start launches an execution in storage of its own and returns the handle.
func (d *Device) Start(cfg ExecConfig) (*Exec, error) {
	e := new(Exec)
	if err := d.StartIn(e, &cfg); err != nil {
		return nil, err
	}
	return e, nil
}

// StartIn launches an execution in e, which the caller owns: the zero Exec,
// or one whose last run is stopped or done with every callback delivered.
// The configured launch latency elapses before CTAs become resident.
// Placement must stay within the device and clear of other executions' SM
// ranges; overlap, like storage still in use, is the caller's scheduling bug
// and is reported as an error. cfg is copied.
func (d *Device) StartIn(e *Exec, cfg *ExecConfig) error {
	if cfg.Profile == nil {
		return fmt.Errorf("gpu: Start without profile")
	}
	if cfg.SMLo < 0 || cfg.SMHi > d.par.Limits.NumSMs || cfg.SMLo >= cfg.SMHi {
		return fmt.Errorf("gpu: bad SM range [%d,%d)", cfg.SMLo, cfg.SMHi)
	}
	if cfg.TotalTasks < 0 || cfg.DoneTasks < 0 || cfg.DoneTasks > cfg.TotalTasks {
		return fmt.Errorf("gpu: bad task counts total=%d done=%d", cfg.TotalTasks, cfg.DoneTasks)
	}
	if cfg.TaskCost <= 0 && cfg.TotalTasks > cfg.DoneTasks {
		return fmt.Errorf("gpu: non-positive task cost")
	}
	if e.run > 0 && (e.state == StateLaunching || e.state == StateRunning || e.hops > 0) {
		return fmt.Errorf("gpu: Start into storage %s still uses: %s, %d callbacks undelivered", e.cfg.Profile.Name, e.state, e.hops)
	}
	for _, other := range d.execs {
		if other.smLo < cfg.SMHi && cfg.SMLo < other.smHi {
			return fmt.Errorf("gpu: SM range [%d,%d) overlaps running %s [%d,%d)",
				cfg.SMLo, cfg.SMHi, other.cfg.Profile.Name, other.smLo, other.smHi)
		}
	}
	run := e.run + 1 // all that reused storage keeps
	*e = Exec{}
	e.dev, e.cfg, e.run = d, *cfg, run
	if cfg.Persistent && cfg.L <= 0 {
		e.cfg.L = 1
	}
	e.done = float64(cfg.DoneTasks)
	e.smLo, e.smHi = cfg.SMLo, cfg.SMHi
	e.taskSecs, e.pollSecs = cfg.TaskCost.Seconds(), d.pinnedSecs/float64(e.cfg.L)
	// Register immediately so overlap checks see launching executions too.
	d.execs = append(d.execs, e)
	d.met.Launches.Inc()
	d.met.Executions.Set(float64(len(d.execs)))
	d.emit(EvLaunch, e, e.smLo, e.smHi)
	delay := d.par.LaunchLatency
	if cfg.ColdStart {
		delay += d.par.ColdRestart
	}
	e.launchEv = d.eng.ScheduleFire(delay, e, execResident, 0)
	return nil
}

// The engine events of one execution (Exec.Fire's kind).
const (
	execResident = iota // launch latency over: the CTAs land
	execDrainEnd        // the yielding CTAs have left their SMs
	execDrained         // zero-delay hop to OnDrained(arg)
	execComplete        // zero-delay hop to OnComplete
	// execExpand+lo: the relaunch Expand(lo) ordered has landed; arg is the
	// run that ordered it.
	execExpand
)

// Fire implements sim.Handler. The execution is its own event record's
// handler, so scheduling any of these allocates nothing.
func (e *Exec) Fire(kind, arg int) {
	switch kind {
	case execResident:
		e.dev.becomeResident(e)
	case execDrainEnd:
		e.dev.finishDrain(e)
	case execDrained:
		e.hops--
		e.cfg.OnDrained(arg)
	case execComplete:
		e.hops--
		e.cfg.OnComplete()
	default:
		if arg == e.run {
			e.dev.expanded(e, kind-execExpand)
		}
	}
}

// notifyDrained queues OnDrained(remaining) as the next event at this
// instant.
func (e *Exec) notifyDrained(remaining int) {
	if e.cfg.OnDrained != nil {
		e.hops++
		e.dev.eng.ScheduleFire(0, e, execDrained, remaining)
	}
}

// becomeResident places the execution's CTAs after launch latency.
func (d *Device) becomeResident(e *Exec) {
	d.sync()
	e.state = StateRunning
	e.lastSync = d.eng.Now()
	e.place()
	d.recomputeRates()
	d.met.Residencies.Inc()
	d.met.CTAsPlaced.Add(int64(e.resident))
	d.updateGauges()
	d.emit(EvResident, e, e.smLo, e.smHi)
	if e.Remaining() == 0 {
		d.finish(e)
		return
	}
	d.reschedule()
}

// place distributes the execution's CTAs round-robin over its SM range,
// capped by occupancy and by remaining tasks (a persistent kernel launches
// at most one worker per task when tasks are scarce).
func (e *Exec) place() {
	n := e.smHi - e.smLo
	want := n * e.cfg.Profile.CTAsPerSM
	if rem := e.Remaining(); rem < want {
		want = rem
	}
	e.resident, e.perSM, e.extra = want, want/n, want%n
}

// Remaining returns the integer remaining-task count at the current time.
func (e *Exec) Remaining() int {
	r := e.cfg.TotalTasks - int(math.Floor(e.done+1e-9))
	if r < 0 {
		return 0
	}
	return r
}

// State returns the execution's lifecycle state.
func (e *Exec) State() ExecState { return e.state }

// SMRange returns the current SM placement.
func (e *Exec) SMRange() (lo, hi int) { return e.smLo, e.smHi }

// perTask returns the effective per-task duration (seconds) of one CTA on
// an SM with k resident CTAs, under the device-wide pressure multipliers.
func (e *Exec) perTask(k int, pressure, mix float64) float64 {
	base := e.taskSecs * e.cfg.Profile.speedFactor(k) * pressure * mix
	if e.cfg.Persistent {
		base += e.dev.atomicSecs
		base += e.pollSecs
	}
	return base
}

// sync advances all fluid progress to now (rates are current: every change
// to placement or to the running set ends in recomputeRates).
func (d *Device) sync() {
	now := d.eng.Now()
	for _, e := range d.execs {
		if e.state != StateRunning {
			continue
		}
		if now > e.lastSync { // most syncs follow another at the same instant
			e.done += e.rate * (now - e.lastSync).Seconds()
			if e.done > float64(e.cfg.TotalTasks) {
				e.done = float64(e.cfg.TotalTasks)
			}
			e.lastSync = now
		}
	}
}

// recomputeRates derives each execution's task rate from its placement and
// the device-wide memory pressure and heterogeneity mix.
func (d *Device) recomputeRates() {
	pressure, mix := d.globalFactors()
	for _, e := range d.execs {
		if e.state != StateRunning {
			continue
		}
		// One term per occupied SM, summed in SM order: an SM's term depends
		// only on its CTA count, and placement has at most two of those.
		rate := 0.0
		if e.extra > 0 {
			term := float64(e.perSM+1) / e.perTask(e.perSM+1, pressure, mix)
			for i := 0; i < e.extra; i++ {
				rate += term
			}
		}
		if e.perSM > 0 {
			term := float64(e.perSM) / e.perTask(e.perSM, pressure, mix)
			for i := e.extra; i < e.smHi-e.smLo; i++ {
				rate += term
			}
		}
		e.rate = rate
	}
}

// globalFactors computes the device-wide task-duration multipliers:
// pressure ≥ 1 models aggregate memory-bandwidth saturation; mix ≤ 1 models
// the utilization benefit of co-running kernels with different characters.
func (d *Device) globalFactors() (pressure, mix float64) {
	demand := 0.0
	minMI, maxMI := 1.0, 0.0
	running := 0
	for _, e := range d.execs {
		if e.state != StateRunning || e.resident == 0 {
			continue
		}
		running++
		mi := e.cfg.Profile.MemoryIntensity
		if mi < minMI {
			minMI = mi
		}
		if mi > maxMI {
			maxMI = mi
		}
		full := float64(d.par.Limits.NumSMs * e.cfg.Profile.CTAsPerSM)
		if full > 0 {
			demand += mi * float64(e.resident) / full
		}
	}
	pressure = 1.0
	if demand > 1 {
		pressure = demand
	}
	mix = 1.0
	if running >= 2 && maxMI > minMI {
		mix = 1 - d.par.MixBonus*(maxMI-minMI)
	}
	return pressure, mix
}

// reschedule cancels and re-arms the wake event for the earliest pending
// completion.
func (d *Device) reschedule() {
	d.wake.Cancel()
	soonest := time.Duration(math.MaxInt64)
	found := false
	for _, e := range d.execs {
		if e.state != StateRunning || e.rate <= 0 {
			continue
		}
		remaining := float64(e.cfg.TotalTasks) - e.done
		secs := remaining / e.rate
		at := e.lastSync + time.Duration(secs*float64(time.Second))
		if at < d.eng.Now() {
			at = d.eng.Now()
		}
		if at < soonest {
			soonest = at
			found = true
		}
	}
	if found {
		d.wake = d.eng.AtFire(soonest, d, 0, 0)
	}
}

// Fire implements sim.Handler for the device's one event, the wake at a
// predicted completion time: finish anything done and re-arm.
func (d *Device) Fire(int, int) {
	d.sync()
	for _, e := range d.execs {
		if e.state == StateRunning && float64(e.cfg.TotalTasks)-e.done < 0.5 {
			e.done = float64(e.cfg.TotalTasks)
			d.finish(e)
		}
	}
	d.reschedule()
}

// finish completes an execution: removes it, fires callbacks, and resolves
// any outstanding drain with remaining=0.
func (d *Device) finish(e *Exec) {
	e.state = StateDone
	d.remove(e)
	d.met.Completions.Inc()
	d.updateGauges()
	d.emit(EvComplete, e, e.smLo, e.smHi)
	if e.draining {
		e.draining = false
		e.drainEv.Cancel()
		e.notifyDrained(0)
	}
	if e.cfg.OnComplete != nil {
		e.hops++
		d.eng.ScheduleFire(0, e, execComplete, 0)
	}
	d.recomputeRates()
	d.reschedule()
}

func (d *Device) remove(e *Exec) {
	for i, x := range d.execs {
		if x == e {
			d.execs = append(d.execs[:i], d.execs[i+1:]...)
			return
		}
	}
}

// emit reports an event of e over SMs [lo, hi), built only when an
// Observer is set. A finished execution has no tasks remaining.
func (d *Device) emit(kind EventKind, e *Exec, lo, hi int) {
	if d.Observer != nil {
		d.Observer(Event{Time: d.eng.Now(), Kind: kind, Kernel: e.cfg.Profile.Name, SMLo: lo, SMHi: hi, Remaining: e.Remaining()})
	}
}

// Preempt asks a persistent execution to yield yieldSMs SMs (counted from
// the low end of its range, matching the paper's "SMs of ID smaller than
// spa_P" rule). yieldSMs at or above the execution's SM span is a temporal
// preemption: the whole execution stops after the drain. OnDrained fires
// when the SMs are free. A second Preempt while draining widens the yield.
func (e *Exec) Preempt(yieldSMs int) error {
	d := e.dev
	switch e.state {
	case StateDone, StateStopped:
		return fmt.Errorf("gpu: preempting %s execution", e.state)
	case StateLaunching:
		// Not yet resident: cancel the launch outright; the flag would
		// be set before any task runs.
		e.launchEv.Cancel()
		e.state = StateStopped
		d.remove(e)
		d.met.Drains.Inc()
		d.updateGauges()
		e.notifyDrained(e.Remaining())
		return nil
	}
	if yieldSMs <= 0 {
		return fmt.Errorf("gpu: preempt with non-positive SM count %d", yieldSMs)
	}
	if yieldSMs > e.smHi-e.smLo {
		yieldSMs = e.smHi - e.smLo
	}
	d.sync()
	d.met.PreemptRequests.Inc()
	d.emit(EvPreemptRequest, e, e.smLo, e.smLo+yieldSMs)
	if e.draining {
		if yieldSMs > e.drainYield {
			e.drainYield = yieldSMs
		}
		return nil
	}
	e.draining = true
	e.drainYield = yieldSMs
	e.drainEv = d.eng.ScheduleFire(e.drainTime(), e, execDrainEnd, 0)
	return nil
}

// drainTime models how long the yielding CTAs keep running after the CPU
// sets the flag: flag propagation, plus the expected residual batch work,
// plus the final poll. A worker polls the flag once per L-task batch, so
// at a uniformly-positioned moment it still owes (L-1)/2 whole tasks on
// average before its next poll (the in-flight task's tail is part of the
// final PinnedReadLatency poll round, not an extra full task).
func (e *Exec) drainTime() time.Duration {
	pressure, mix := e.dev.globalFactors()
	k := e.cfg.Profile.CTAsPerSM
	if n := e.resident; n > 0 && n < k*(e.smHi-e.smLo) {
		// Sparse placement: per-SM occupancy is lower.
		k = (n + (e.smHi - e.smLo) - 1) / (e.smHi - e.smLo)
	}
	per := e.perTask(k, pressure, mix)
	batch := float64(e.cfg.L-1) / 2 * per
	return e.dev.par.FlagPropagation + e.dev.par.PinnedReadLatency +
		time.Duration(batch*float64(time.Second))
}

// finishDrain frees the yielded SMs. Temporal preemption stops the
// execution; spatial preemption shrinks it onto its remaining SMs.
func (d *Device) finishDrain(e *Exec) {
	if e.state != StateRunning {
		return
	}
	d.sync()
	e.draining = false
	yield := e.drainYield
	remaining := e.Remaining()
	d.met.Drains.Inc()
	if yield >= e.smHi-e.smLo || remaining == 0 {
		// Whole execution yields.
		e.state = StateStopped
		d.remove(e)
		d.emit(EvDrained, e, e.smLo, e.smHi)
		e.notifyDrained(remaining)
	} else {
		// Spatial: keep running on the high SMs.
		e.smLo += yield
		e.place()
		d.emit(EvDrained, e, e.smLo-yield, e.smLo)
		e.notifyDrained(remaining)
	}
	d.recomputeRates()
	d.updateGauges()
	d.reschedule()
}

// Expand grows a running execution's SM range back down to lo, reclaiming
// SMs freed by a departed spatial guest. The host realizes this by
// relaunching the persistent kernel on the idle SMs (same device-resident
// task counter), so one launch latency elapses before the new CTAs land.
func (e *Exec) Expand(lo int) error {
	d := e.dev
	if e.state != StateRunning {
		return fmt.Errorf("gpu: expanding %s execution", e.state)
	}
	if e.draining {
		// A drain is in flight: the preemption flag is already set, so the
		// relaunched CTAs would observe it and exit immediately. Worse, the
		// drain's yield width was computed against the current span, so
		// growing the range now would turn a full temporal drain into a
		// partial one and strand the execution as resident. Refuse; the
		// scheduler redispatches at full width after the drain anyway.
		return fmt.Errorf("gpu: expanding draining execution")
	}
	if lo < 0 || lo >= e.smLo {
		return fmt.Errorf("gpu: expand to [%d,...) does not grow range [%d,%d)", lo, e.smLo, e.smHi)
	}
	for _, other := range d.execs {
		if other == e {
			continue
		}
		if other.smLo < e.smLo && lo < other.smHi {
			return fmt.Errorf("gpu: expand overlaps %s [%d,%d)", other.cfg.Profile.Name, other.smLo, other.smHi)
		}
	}
	// Only the relaunched SMs start cold; scale the warm-up accordingly.
	freed := e.smLo - lo
	delay := d.par.LaunchLatency +
		time.Duration(float64(d.par.ColdRestart)*float64(freed)/float64(d.par.Limits.NumSMs))
	d.eng.ScheduleFire(delay, e, execExpand+lo, e.run)
	return nil
}

// expanded applies an Expand(lo) whose relaunch latency is over.
func (d *Device) expanded(e *Exec, lo int) {
	// Re-check draining too: a preemption that started while the relaunch
	// was in flight caps its yield at the pre-expand span, so applying the
	// expansion now would outlive the drain.
	if e.state != StateRunning || e.draining || lo >= e.smLo {
		return
	}
	// Re-validate: another execution may have taken the SMs while the
	// relaunch was in flight.
	for _, other := range d.execs {
		if other != e && other.smLo < e.smLo && lo < other.smHi {
			return
		}
	}
	d.sync()
	before := e.resident
	e.smLo = lo
	e.place()
	if grown := e.resident - before; grown > 0 {
		d.met.CTAsPlaced.Add(int64(grown))
	}
	d.met.Residencies.Inc()
	d.emit(EvResident, e, e.smLo, e.smHi)
	d.recomputeRates()
	d.updateGauges()
	d.reschedule()
}
