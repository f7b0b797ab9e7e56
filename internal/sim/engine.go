// Package sim provides a deterministic discrete-event simulation engine.
//
// All FLEP components run against a virtual clock owned by an Engine.
// Events are ordered by (time, sequence number), so simulations are fully
// reproducible: scheduling the same events always yields the same execution
// order regardless of map iteration or goroutine scheduling (the engine is
// single-threaded by design).
package sim

import (
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event struct {
	when     time.Duration
	seq      uint64
	fn       func()
	eng      *Engine
	canceled bool
	index    int // position in eng.queue; -1 when not queued
}

// Cancel prevents the event from firing and takes it out of the queue at
// once, so a superseded far-future timer costs nobody a deeper sift.
// Canceling an already-fired or already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if e.index >= 0 {
		e.eng.remove(e.index)
	}
}

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e != nil && e.canceled }

// When returns the virtual time the event is scheduled for.
func (e *Event) When() time.Duration { return e.when }

// before is the firing order: time, then scheduling sequence. seq is unique,
// so the order is total and the heap's pop order does not depend on how it
// arranges its interior.
func (e *Event) before(o *Event) bool {
	return e.when < o.when || (e.when == o.when && e.seq < o.seq)
}

// Engine is a single-threaded discrete-event simulator.
// The zero value is ready to use.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   []*Event // binary min-heap under Event.before
	running bool
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay of virtual time. A negative delay is an
// error in the caller; Schedule panics to surface it immediately.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time when, which must not be in the past.
func (e *Engine) At(when time.Duration, fn func()) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", when, e.now))
	}
	if fn == nil {
		panic("sim: nil event func")
	}
	e.seq++
	ev := &Event{when: when, seq: e.seq, fn: fn, eng: e}
	e.queue = append(e.queue, nil)
	e.up(len(e.queue)-1, ev)
	return ev
}

// up places ev at or above hole i, moving later parents down into the hole.
func (e *Engine) up(i int, ev *Event) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down places ev at or below hole i, moving earlier children up.
func (e *Engine) down(i int, ev *Event) {
	q := e.queue
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		q[i].index = i
		i = c
	}
	q[i] = ev
	ev.index = i
}

// remove takes the event at heap position i out of the queue.
func (e *Engine) remove(i int) {
	q := e.queue
	n := len(q) - 1
	q[i].index = -1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(q[(i-1)/2]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// Pending returns the number of queued events. Canceled events leave the
// queue when they are canceled, so a long-lived daemon can use Pending as
// its idleness signal.
func (e *Engine) Pending() int { return len(e.queue) }

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	e.remove(0)
	e.now = ev.when
	ev.fn()
	return true
}

// Run fires events until the queue is empty, returning the final clock.
func (e *Engine) Run() time.Duration {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with time ≤ deadline, then sets the clock to
// deadline (if it is ahead of the last fired event). It returns the clock.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 && e.queue[0].when <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
