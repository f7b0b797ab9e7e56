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

// Handler receives typed events: AtFire queues (h, kind, arg) and the engine
// calls h.Fire(kind, arg) when the time comes. A pointer that implements
// Handler goes into the record without allocating, which a closure over the
// same pointer cannot.
type Handler interface {
	Fire(kind, arg int)
}

// event is one queued record. The engine owns its records: one returns to
// the free list when it fires or is cancelled and is handed out again by a
// later At, so steady-state scheduling allocates nothing.
type event struct {
	when  time.Duration
	seq   uint64 // 0 while on the free list
	fn    func() // either fn, or h with kind and arg
	h     Handler
	kind  int
	arg   int
	eng   *Engine
	index int    // position in eng.queue
	next  *event // free-list link
}

// before is the firing order: time, then scheduling sequence. seq is unique,
// so the order is total and the heap's pop order does not depend on how it
// arranges its interior.
func (e *event) before(o *event) bool {
	return e.when < o.when || (e.when == o.when && e.seq < o.seq)
}

// Timer is the handle At and Schedule return: the record and the sequence
// number it was issued under. Records are recycled, so a Timer kept past its
// event's firing or cancellation may point at a later event's record; the
// sequence number tells them apart and such a Timer is inert. The zero value
// is "no timer".
type Timer struct {
	ev   *event
	seq  uint64
	when time.Duration
}

// Pending reports whether the event is still queued: not yet fired, not
// cancelled.
func (t Timer) Pending() bool { return t.ev != nil && t.ev.seq == t.seq }

// Cancel prevents the event from firing and takes it out of the queue at
// once, so a superseded far-future timer costs nobody a deeper sift.
// Cancelling an already-fired or already-cancelled event is a no-op.
func (t Timer) Cancel() {
	if t.Pending() {
		eng := t.ev.eng
		eng.remove(t.ev.index)
		eng.release(t.ev)
	}
}

// When returns the virtual time the event was scheduled for.
func (t Timer) When() time.Duration { return t.when }

// Engine is a single-threaded discrete-event simulator.
// The zero value is ready to use.
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   []*event // binary min-heap under event.before
	free    *event   // records waiting for reuse, linked through next
	running bool
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay of virtual time. A negative delay is an
// error in the caller; Schedule panics to surface it immediately.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	return e.At(e.after(delay), fn)
}

// At runs fn at absolute virtual time when, which must not be in the past.
func (e *Engine) At(when time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: nil event func")
	}
	return e.add(when, fn, nil, 0, 0)
}

// ScheduleFire calls h.Fire(kind, arg) after delay of virtual time: Schedule
// for callers hot enough that a closure per event shows.
func (e *Engine) ScheduleFire(delay time.Duration, h Handler, kind, arg int) Timer {
	return e.AtFire(e.after(delay), h, kind, arg)
}

// AtFire calls h.Fire(kind, arg) at absolute virtual time when.
func (e *Engine) AtFire(when time.Duration, h Handler, kind, arg int) Timer {
	if h == nil {
		panic("sim: nil event handler")
	}
	return e.add(when, nil, h, kind, arg)
}

// after is the absolute time of a delay from now.
func (e *Engine) after(delay time.Duration) time.Duration {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.now + delay
}

// add queues an event under the next sequence number, in a record off the
// free list if there is one.
func (e *Engine) add(when time.Duration, fn func(), h Handler, kind, arg int) Timer {
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", when, e.now))
	}
	ev := e.free
	if ev == nil {
		ev = &event{eng: e}
	} else {
		e.free, ev.next = ev.next, nil
	}
	e.seq++
	ev.when, ev.seq, ev.fn, ev.h, ev.kind, ev.arg = when, e.seq, fn, h, kind, arg
	e.queue = append(e.queue, nil)
	e.up(len(e.queue)-1, ev)
	return Timer{ev: ev, seq: ev.seq, when: when}
}

// release returns a record that left the queue to the free list. Clearing
// seq is what makes every Timer issued for it inert; clearing the callback
// keeps a spent record from pinning whatever the callback captured.
func (e *Engine) release(ev *event) {
	ev.seq, ev.fn, ev.h = 0, nil, nil
	ev.next, e.free = e.free, ev
}

// up places ev at or above hole i, moving later parents down into the hole.
func (e *Engine) up(i int, ev *event) {
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
func (e *Engine) down(i int, ev *event) {
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

// Rewind sets an idle engine's clock back to zero, so one engine can run
// one simulation after another as if each had it fresh. The event records
// and the sequence counter are kept: sequence numbers keep rising, so a
// Timer issued before the rewind never matches a later event and stays
// inert. It panics if events are queued or the engine is running.
func (e *Engine) Rewind() {
	if e.running {
		panic("sim: Rewind of a running engine")
	}
	if len(e.queue) > 0 {
		panic(fmt.Sprintf("sim: Rewind with %d events queued", len(e.queue)))
	}
	e.now = 0
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
	// The record goes back before the callback runs, so whatever the
	// callback schedules first reuses it.
	fn, h, kind, arg := ev.fn, ev.h, ev.kind, ev.arg
	e.release(ev)
	if fn != nil {
		fn()
	} else {
		h.Fire(kind, arg)
	}
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

// StepUntil fires the earliest pending event if its time is ≤ deadline,
// reporting whether one fired.
func (e *Engine) StepUntil(deadline time.Duration) bool {
	return len(e.queue) > 0 && e.queue[0].when <= deadline && e.Step()
}

// RunUntil fires events with time ≤ deadline, then sets the clock to
// deadline (if it is ahead of the last fired event). It returns the clock.
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.StepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
