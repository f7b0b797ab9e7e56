package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refEngine is the naive reference the real engine is checked against: a
// slice kept sorted by (when, seq), with cancellation by deletion.
type refEngine struct {
	now   time.Duration
	seq   uint64
	queue []*refEvent
}

type refEvent struct {
	when     time.Duration
	seq      uint64
	id       int
	canceled bool
	queued   bool
}

func (r *refEngine) at(when time.Duration, id int) *refEvent {
	r.seq++
	ev := &refEvent{when: when, seq: r.seq, id: id, queued: true}
	i := sort.Search(len(r.queue), func(i int) bool {
		q := r.queue[i]
		return q.when > when || (q.when == when && q.seq > ev.seq)
	})
	r.queue = append(r.queue, nil)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = ev
	return ev
}

func (r *refEngine) cancel(ev *refEvent) {
	ev.canceled = true
	if !ev.queued {
		return
	}
	for i, q := range r.queue {
		if q == ev {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			ev.queued = false
			return
		}
	}
}

// pop removes and returns the next event to fire, or nil.
func (r *refEngine) pop() *refEvent {
	if len(r.queue) == 0 {
		return nil
	}
	ev := r.queue[0]
	r.queue = r.queue[1:]
	ev.queued = false
	r.now = ev.when
	return ev
}

// TestEngineMatchesSortedSliceModel drives the engine and the reference
// with one seeded operation sequence — At, Schedule, Cancel (of queued,
// fired and already-cancelled events), Step and RunUntil, same-timestamp
// ties, and callbacks that schedule and cancel from inside a firing — and
// requires the same firing order, clock and Pending() after every
// operation. Handles are kept forever and used long after their event
// fired or was cancelled: Cancel, When and pending-ness through any of
// them must agree with the reference, and a Cancel through a spent one must
// leave every live event alone — including the later event that now
// occupies the spent handle's record.
func TestEngineMatchesSortedSliceModel(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)
	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, operation %d: "+format, append([]any{seed, op}, args...)...)
	}

	eng := New()
	ref := &refEngine{}
	type pair struct {
		ev  Timer
		ref *refEvent
	}
	var handles []pair
	var fired, refFired []int
	nextID := 0
	// Cancel calls through a handle whose event had fired or been cancelled,
	// and those of them whose record had been re-issued by then.
	spentCancels, reissuedCancels := 0, 0

	// schedule adds the same event to both sides. One in four callbacks
	// schedules a follow-up and cancels a random earlier handle when it
	// fires; the reference replays that from its own pop loop.
	var schedule func(when time.Duration)
	schedule = func(when time.Duration) {
		id := nextID
		nextID++
		follow, victim := time.Duration(-1), -1 // none
		if rng.Intn(4) == 0 {
			follow = time.Duration(rng.Intn(3)) * time.Microsecond
			if len(handles) > 0 {
				victim = rng.Intn(len(handles))
			}
		}
		ev := eng.At(when, func() {
			fired = append(fired, id)
			if follow >= 0 {
				schedule(eng.Now() + follow)
			}
			if victim >= 0 {
				handles[victim].ev.Cancel()
				ref.cancel(handles[victim].ref)
			}
		})
		handles = append(handles, pair{ev, ref.at(when, id)})
	}
	// refStep fires one reference event. The follow-up and the cancel were
	// already applied to the reference by the real callback (they share
	// schedule), so the reference only has to agree on which event is next.
	refStep := func() bool {
		ev := ref.pop()
		if ev == nil {
			return false
		}
		refFired = append(refFired, ev.id)
		return true
	}

	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(10); {
		case k < 4: // At / Schedule, often onto an occupied timestamp
			delay := time.Duration(rng.Intn(8)) * time.Microsecond
			if rng.Intn(8) == 0 {
				delay = time.Duration(rng.Intn(1000)) * time.Millisecond
			}
			schedule(eng.Now() + delay)
		case k < 6: // Cancel: queued, fired or cancelled, whichever it hits
			if len(handles) > 0 {
				h := handles[rng.Intn(len(handles))]
				wasQueued := h.ref.queued
				before := eng.Pending()
				h.ev.Cancel()
				ref.cancel(h.ref)
				if h.ev.Pending() {
					fail(op, "handle pending after Cancel")
				}
				if !wasQueued {
					spentCancels++
					if h.ev.ev.seq != 0 {
						reissuedCancels++ // the record is queued again, for a later event
					}
					if eng.Pending() != before {
						fail(op, "Cancel through a spent handle took Pending from %d to %d", before, eng.Pending())
					}
				}
			}
		case k < 9: // Step: the reference pops first, the callback then
			// mutates both sides identically
			want := refStep()
			if got := eng.Step(); got != want {
				fail(op, "Step = %v, reference %v", got, want)
			}
		default: // RunUntil
			deadline := eng.Now() + time.Duration(rng.Intn(20))*time.Microsecond
			for len(ref.queue) > 0 && ref.queue[0].when <= deadline {
				// Fire the real event for each reference pop so callbacks
				// interleave exactly as RunUntil would run them.
				refStep()
				if !eng.Step() {
					fail(op, "engine idle while the reference still had events ≤ %v", deadline)
				}
			}
			eng.RunUntil(deadline)
			if ref.now < deadline {
				ref.now = deadline
			}
		}
		// Look through a few handles of any age: what they report is the
		// reference's view of their own event, whoever holds the record now.
		for i := 0; i < 4 && len(handles) > 0; i++ {
			h := handles[rng.Intn(len(handles))]
			if got := h.ev.Pending(); got != h.ref.queued {
				fail(op, "event %d: pending = %v, reference %v", h.ref.id, got, h.ref.queued)
			}
			if got := h.ev.When(); got != h.ref.when {
				fail(op, "event %d: When = %v, reference %v", h.ref.id, got, h.ref.when)
			}
		}
		if eng.Now() != ref.now {
			fail(op, "Now = %v, reference %v", eng.Now(), ref.now)
		}
		if eng.Pending() != len(ref.queue) {
			fail(op, "Pending = %d, reference %d", eng.Pending(), len(ref.queue))
		}
		if len(fired) != len(refFired) {
			fail(op, "%d events fired, reference %d", len(fired), len(refFired))
		}
		if n := len(fired); n > 0 && fired[n-1] != refFired[n-1] {
			fail(op, "fired event %d, reference %d", fired[n-1], refFired[n-1])
		}
	}
	for i := range fired {
		if fired[i] != refFired[i] {
			t.Fatalf("seed %d: firing order diverges at position %d: %d vs reference %d", seed, i, fired[i], refFired[i])
		}
	}
	if len(fired) < 2000 {
		t.Fatalf("seed %d: only %d events fired; the sequence is not exercising the engine", seed, len(fired))
	}
	if spentCancels < 1000 || reissuedCancels < 100 {
		t.Fatalf("seed %d: only %d cancels through spent handles, %d onto a re-issued record; the sequence is not exercising them",
			seed, spentCancels, reissuedCancels)
	}
}

// TestEngineSteadyStateAllocatesNothing pins what scheduling costs the
// allocator once the queue is at depth: one Schedule+Step and one
// Schedule+Cancel against 1,024 queued events, with the callback hoisted so
// (or the event typed) so only the engine's own allocations count.
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	const depth = 1024
	nop := func() {}
	h := new(countingHandler)
	eng := New()
	for i := 0; i < depth; i++ {
		eng.Schedule(time.Duration(i+1)*time.Microsecond, nop)
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Schedule+Step", func() {
			eng.Schedule(depth*time.Microsecond, nop)
			eng.Step()
		}},
		{"Schedule+Cancel", func() { eng.Schedule(time.Hour, nop).Cancel() }},
		{"ScheduleFire+Step", func() {
			eng.ScheduleFire(depth*time.Microsecond, h, 1, 2)
			eng.Step()
		}},
		{"ScheduleFire+Cancel", func() { eng.ScheduleFire(time.Hour, h, 1, 2).Cancel() }},
	} {
		if got := testing.AllocsPerRun(1000, tc.run); got != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, got)
		}
	}
	if eng.Pending() != depth {
		t.Fatalf("Pending = %d, want the queue still %d deep", eng.Pending(), depth)
	}
}

// countingHandler records what Fire was last called with.
type countingHandler struct{ fires, kind, arg int }

func (h *countingHandler) Fire(kind, arg int) { h.fires, h.kind, h.arg = h.fires+1, kind, arg }

// TestTypedEventsShareTheOrder: AtFire events take their sequence numbers
// from the same counter as At events, so the two kinds interleave in
// scheduling order at one timestamp, and Fire receives what was queued.
func TestTypedEventsShareTheOrder(t *testing.T) {
	eng := New()
	var order []int
	h := orderHandler{&order}
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			eng.AtFire(5, h, i, 10*i)
		} else {
			eng.Schedule(5, func() { order = append(order, i, 10*i) })
		}
	}
	eng.Run()
	want := []int{0, 0, 1, 10, 2, 20, 3, 30, 4, 40, 5, 50}
	if !slices.Equal(order, want) {
		t.Fatalf("fired (kind, arg) pairs %v, want %v", order, want)
	}
}

type orderHandler struct{ order *[]int }

func (h orderHandler) Fire(kind, arg int) { *h.order = append(*h.order, kind, arg) }

// TestSpentRecordKeepsNoCallback: a record on the free list references
// neither the func nor the handler it last carried, and the Timer that
// scheduled it reads as spent without touching the record's next tenant.
func TestSpentRecordKeepsNoCallback(t *testing.T) {
	eng := New()
	fired := eng.Schedule(1, func() {})
	eng.Step()
	cancelled := eng.ScheduleFire(1, new(countingHandler), 0, 0)
	cancelled.Cancel()
	n := 0
	for ev := eng.free; ev != nil; ev = ev.next {
		n++
		if ev.fn != nil || ev.h != nil || ev.seq != 0 {
			t.Fatalf("free record keeps fn=%v h=%v seq=%d", ev.fn != nil, ev.h, ev.seq)
		}
	}
	if n != 1 {
		t.Fatalf("%d records on the free list, want the one record used twice", n)
	}
	h := new(countingHandler)
	live := eng.ScheduleFire(3, h, 7, 9) // re-issues the record both spent timers point at
	if fired.ev != live.ev || cancelled.ev != live.ev {
		t.Fatal("the record was not re-issued")
	}
	fired.Cancel()
	cancelled.Cancel()
	if fired.Pending() || cancelled.Pending() || !live.Pending() {
		t.Fatalf("pending: fired %v cancelled %v live %v", fired.Pending(), cancelled.Pending(), live.Pending())
	}
	if fired.When() != 1 || cancelled.When() != 2 || live.When() != 4 {
		t.Fatalf("When: fired %v cancelled %v live %v", fired.When(), cancelled.When(), live.When())
	}
	var none Timer
	none.Cancel()
	if none.Pending() || none.When() != 0 {
		t.Fatal("the zero Timer is not inert")
	}
	eng.Run()
	if *h != (countingHandler{fires: 1, kind: 7, arg: 9}) {
		t.Fatalf("live event fired as %+v", *h)
	}
}

// TestCancelRemovesFromQueue: a cancelled event leaves the queue at once
// instead of riding the heap until its timestamp comes up.
func TestCancelRemovesFromQueue(t *testing.T) {
	e := New()
	keep := e.Schedule(time.Hour, func() {})
	for i := 0; i < 10000; i++ {
		e.Schedule(time.Duration(i+1)*time.Second, func() {}).Cancel()
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after 10,000 schedule+cancel pairs, want the 1 live event", got)
	}
	if got := len(e.queue); got != 1 {
		t.Fatalf("queue holds %d events, want 1", got)
	}
	keep.Cancel()
	if e.Pending() != 0 || e.Step() {
		t.Fatal("queue not empty after cancelling the last event")
	}
}
