// Package fixtureloop exercises the looppurity analyzer's engine
// roots: function literals handed to Engine.Schedule/At, the Fire method of
// handlers handed to Engine.ScheduleFire/AtFire, and callbacks assigned to
// On* hook fields.
package fixtureloop

import (
	"time"

	"flep/internal/sim"
)

// Hooks mirrors the runtime's callback-struct style.
type Hooks struct {
	OnDrain func()
}

// ScheduleBad roots an event that blocks the loop two ways.
func ScheduleBad(e *sim.Engine, ch chan int) {
	e.Schedule(10, func() {
		time.Sleep(time.Millisecond) // want `block time\.Sleep`
		ch <- 1                      // want `blockingsend channel send`
	})
}

// ScheduleGood never blocks: the send is guarded by a default clause.
func ScheduleGood(e *sim.Engine, ch chan int) {
	e.Schedule(10, func() {
		select {
		case ch <- 1:
		default:
		}
	})
}

// helper is reached from a scheduled event through a static call, so
// its send is loop-reachable too.
func helper(ch chan int) {
	ch <- 2 // want `blockingsend channel send`
}

// ScheduleIndirect exercises the same-package call-graph closure.
func ScheduleIndirect(e *sim.Engine, ch chan int) {
	e.At(5, func() { helper(ch) })
}

// timer is a typed-event handler: the engine calls its Fire, so Fire and
// what it reaches run on the loop.
type timer struct{ ch chan int }

func (t *timer) Fire(kind, arg int) {
	if kind == 1 {
		t.expire()
	}
}

func (t *timer) expire() {
	time.Sleep(time.Millisecond) // want `block time\.Sleep`
}

// quiet has a Fire too, but nothing ever schedules it.
type quiet struct{}

func (quiet) Fire(kind, arg int) { time.Sleep(time.Millisecond) }

// ScheduleTyped roots timer.Fire through both typed scheduling calls.
func ScheduleTyped(e *sim.Engine, t *timer) {
	e.ScheduleFire(10, t, 1, 0)
	e.AtFire(20, t, 0, 0)
}

// HookBad installs a blocking callback on an On* field.
func HookBad(h *Hooks) {
	h.OnDrain = func() {
		time.Sleep(time.Second) // want `block time\.Sleep`
	}
}

// Unrooted is ordinary code called from the daemon boundary; it is
// free to block.
func Unrooted(ch chan int) {
	ch <- 3
}
