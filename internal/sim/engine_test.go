package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event did not fire")
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %v, want 5", e.Now())
	}
}

func TestOrderingByTime(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events not FIFO: %v", order)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(5, func() { fired = true })
	ev.Cancel()
	if ev.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	ev.Cancel()
	ev.Cancel() // must not panic
	e.Run()
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []time.Duration
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestScheduleZeroDelayFiresAtNow(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		e.Schedule(0, func() {
			if e.Now() != 10 {
				t.Errorf("zero-delay event at %v, want 10", e.Now())
			}
		})
	})
	e.Run()
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var fired []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 5 and 10", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %v, want 12", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling into the past")
		}
	}()
	e.At(5, func() {})
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("no panic: %s", what)
		}
	}()
	fn()
}

func TestRewindRefusesBusyEngine(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	mustPanic(t, "Rewind with an event queued", e.Rewind)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after a refused Rewind, want 1", e.Pending())
	}
	e.Run()
	e.Schedule(5, func() { mustPanic(t, "Rewind inside Run", e.Rewind) })
	e.Run()
	e.Schedule(5, func() { mustPanic(t, "Rewind inside RunUntil", e.Rewind) })
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("Now = %v after the refused Rewinds, want 100", e.Now())
	}
	e.Rewind()
	if e.Now() != 0 {
		t.Fatalf("Now = %v after Rewind, want 0", e.Now())
	}
}

// TestRewoundTimerIsInert: a Timer issued before a rewind, for an event that
// fired or was cancelled, is inert after it, even once its record holds an
// event scheduled after the rewind: its Cancel removes nothing.
func TestRewoundTimerIsInert(t *testing.T) {
	e := New()
	fired := e.Schedule(5, func() {})
	cancelled := e.Schedule(8, func() {})
	cancelled.Cancel()
	e.Run()
	e.Rewind()
	var got []int
	a := e.Schedule(5, func() { got = append(got, 5) })
	b := e.Schedule(8, func() { got = append(got, 8) })
	if (a.ev != fired.ev && a.ev != cancelled.ev) || (b.ev != fired.ev && b.ev != cancelled.ev) {
		t.Fatal("the events after the rewind did not reuse the earlier records")
	}
	for _, old := range []Timer{fired, cancelled} {
		if old.Pending() {
			t.Fatal("a Timer from before the rewind reads as pending")
		}
		old.Cancel()
	}
	if !a.Pending() || !b.Pending() || e.Pending() != 2 {
		t.Fatalf("a stale Cancel removed an event: pending %d", e.Pending())
	}
	if end := e.Run(); end != 8 || len(got) != 2 {
		t.Fatalf("after the rewind fired %v, clock %v; want [5 8] at 8", got, end)
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on nil func")
		}
	}()
	New().Schedule(1, nil)
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	ev := e.Schedule(1, func() {})
	ev.Cancel()
	if e.Step() {
		t.Fatal("Step with only canceled events returned true")
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
}

func TestPendingIgnoresCanceledEvents(t *testing.T) {
	e := New()
	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	c := e.Schedule(3, func() {})
	a.Cancel()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d after one cancel, want 2", got)
	}
	c.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after two cancels, want 1", got)
	}
	// A daemon that cancels every timer it armed must read as idle.
	b.Cancel()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d with all events canceled, want 0", got)
	}
	if e.Step() {
		t.Fatal("Step fired a canceled event")
	}
}

// Property: events always fire in nondecreasing time order, and every
// non-canceled event fires exactly once.
func TestPropertyOrderAndExactlyOnce(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n)%64 + 1
		fires := make([]int, count)
		var last time.Duration = -1
		ok := true
		canceled := make([]bool, count)
		events := make([]Timer, count)
		for i := 0; i < count; i++ {
			i := i
			d := time.Duration(rng.Intn(1000))
			events[i] = e.Schedule(d, func() {
				fires[i]++
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		for i := range events {
			if rng.Intn(3) == 0 {
				events[i].Cancel()
				canceled[i] = true
			}
		}
		e.Run()
		for i, c := range fires {
			want := 1
			if canceled[i] {
				want = 0
			}
			if c != want {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
