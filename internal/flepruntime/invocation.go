// Package flepruntime implements FLEP's online phase (§5): it intercepts
// kernel invocations, tracks each one's execution triplet (predicted
// duration Te, waiting time Tw, remaining time Tr), keeps them in one
// waiting queue, and makes preemption and scheduling decisions under a
// Policy — an order over that queue and a preemption rule. The paper's two
// are HPF (highest-priority-first with shortest-remaining-time within a
// priority level, Figure 6) and FFS (weighted round-robin fairness under a
// configurable overhead budget); NewPolicy lists the rest.
package flepruntime

import (
	"fmt"
	"time"

	"flep/internal/gpu"
)

// InvState is an invocation's lifecycle state inside the runtime.
type InvState int

// Invocation states.
const (
	InvWaiting InvState = iota
	InvRunning
	InvFinished
)

// String names the state.
func (s InvState) String() string {
	switch s {
	case InvWaiting:
		return "waiting"
	case InvRunning:
		return "running"
	default:
		return "finished"
	}
}

// Invocation is one intercepted kernel launch. The fields above the triplet
// come from the host's flep_intercept call; the triplet (Te, Tw, Tr) is the
// runtime's execution log (§5.1).
type Invocation struct {
	ID       int
	Kernel   string
	Priority int // higher = more important
	Profile  *gpu.KernelProfile
	Tasks    int
	// TaskCost is the ground-truth per-task time used by the device
	// model. Scheduling decisions are made on Te/Tr; the one reader on the
	// scheduling side is FFS's epoch floor.
	TaskCost time.Duration
	// L is the kernel's tuned amortizing factor.
	L int
	// WorkingSet is the invocation's resident device-memory footprint.
	// The runtime reserves it at first dispatch and releases it at
	// completion; a preempted invocation keeps its reservation (its
	// state stays on the device, §8).
	WorkingSet int64

	// Deadline is the invocation's absolute virtual-time deadline (the
	// SLO tier's currency). Zero means best-effort: no deadline, and EDF
	// orders it after every deadline-bearing invocation. The runtime
	// never enforces it — missing a deadline is an SLO accounting event,
	// not an execution error — but EDF schedules against it.
	Deadline time.Duration

	// Dependent marks an invocation that is part of a model graph and was
	// released from the daemon's pending-dependency table: its prerequisites
	// completed before it entered this queue. The runtime schedules it like
	// any other invocation but accounts it separately, so the dependency-
	// visible queue depth can be read off the metrics.
	Dependent bool

	// Te is the predicted duration (never updated after submission).
	Te time.Duration
	// Tw is the accumulated waiting time.
	Tw time.Duration
	// Tr is the predicted remaining execution time.
	Tr time.Duration

	// OnFinish, if set, fires when the invocation completes.
	OnFinish func(*Invocation)

	// Preemptions counts realized preemptions of this invocation: drains
	// that completed with work remaining, whether temporal (back to the
	// queue) or spatial (shrunk to fewer SMs).
	Preemptions int

	sched
	// exec is the storage of the invocation's one live execution (every
	// dispatch starts into it); meaningful while the invocation is running.
	// Recycling keeps it: its run counter is what leaves a stale Expand inert.
	exec gpu.Exec
	// The device callbacks, bound once per storage at its first dispatch.
	// They reach the runtime through rt, so they outlive any one launch.
	onComplete func()
	onDrained  func(remaining int)
}

// sched is the runtime's bookkeeping on an invocation, cleared by Recycle.
type sched struct {
	// rt is the runtime that holds the invocation, from Submit until its
	// onComplete returns; storage it holds is refused by Submit and Recycle.
	rt           *Runtime
	state        InvState
	doneTasks    int
	waitingSince time.Duration
	// preemptAt is when the last preempt flag was raised, so onDrained can
	// report realized latency.
	preemptAt   time.Duration
	runStart    time.Duration
	submittedAt time.Duration
	finishedAt  time.Duration
	guest       bool // currently running as a spatial guest
	reserved    bool // holds a device-memory reservation
	// Runtime.OverheadFor's cache.
	overhead time.Duration
}

// held refuses, with an error, storage a runtime still holds: queued,
// running, or inside its own onComplete.
func (v *Invocation) held() error {
	if v.rt == nil {
		return nil
	}
	return fmt.Errorf("flepruntime: %s (id %d, %s) is held by its runtime until its completion returns", v.Kernel, v.ID, v.state)
}

// Recycle readies finished or never-submitted storage for its next launch:
// it clears what the runtime wrote (ID, Tw, Tr, Preemptions, its
// bookkeeping) and OnFinish, and keeps the execution storage and the device
// callbacks bound to it. The launch fields are the caller's to overwrite.
// Storage a runtime still holds is refused and left untouched.
func (v *Invocation) Recycle() error {
	if err := v.held(); err != nil {
		return err
	}
	v.ID, v.Tw, v.Tr, v.Preemptions, v.OnFinish = 0, 0, 0, 0, nil
	v.sched = sched{}
	return nil
}

// State returns the invocation's lifecycle state.
func (v *Invocation) State() InvState { return v.state }

// SubmittedAt returns the interception time.
func (v *Invocation) SubmittedAt() time.Duration { return v.submittedAt }

// FinishedAt returns the completion time (zero until finished).
func (v *Invocation) FinishedAt() time.Duration { return v.finishedAt }

// Turnaround returns waiting plus execution time for a finished invocation.
func (v *Invocation) Turnaround() time.Duration { return v.finishedAt - v.submittedAt }

// beginWait marks the invocation waiting from now.
func (v *Invocation) beginWait(now time.Duration) {
	v.state = InvWaiting
	v.waitingSince = now
}

// beginRun transitions waiting→running, folding the elapsed wait into Tw.
func (v *Invocation) beginRun(now time.Duration) {
	if v.state == InvWaiting {
		v.Tw += now - v.waitingSince
	}
	v.state = InvRunning
	v.runStart = now
}

// chargeRun folds elapsed runtime into Tr ("its value decreases when it
// runs on the GPU").
func (v *Invocation) chargeRun(now time.Duration) {
	elapsed := now - v.runStart
	if elapsed < 0 {
		elapsed = 0
	}
	if v.Tr > elapsed {
		v.Tr -= elapsed
	} else {
		v.Tr = 0
	}
	v.runStart = now
}
