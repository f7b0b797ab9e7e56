package flepruntime

import (
	"testing"
	"unsafe"
)

// TestSubmitRefusesHeldStorage is the regression test for a double
// submission: a queued invocation submitted again was renumbered and
// finished twice, and so was the running one. Storage the runtime holds —
// queued, running, or inside its own onComplete — is refused by Submit and
// Recycle alike and left as it was. Once onComplete has returned, the
// storage is recycled and launches again, on this runtime or another, with
// the device callbacks it was bound to first.
func TestSubmitRefusesHeldStorage(t *testing.T) {
	eng, rt := newRT(NewHPF(), false)
	running := inv("running", 1, 1200, us(100), 2)
	queued := inv("queued", 1, 1200, us(100), 2)
	finishes := map[string]int{}
	var fromOnFinish []error
	count := func(v *Invocation) { finishes[v.Kernel]++ }
	running.OnFinish = func(v *Invocation) {
		count(v)
		fromOnFinish = append(fromOnFinish, rt.Submit(v), v.Recycle())
	}
	queued.OnFinish = count
	rt.Submit(running)
	rt.Submit(queued)
	for _, v := range []*Invocation{running, queued} {
		id, state := v.ID, v.State()
		if err := rt.Submit(v); err == nil {
			t.Errorf("resubmitting the %s invocation succeeded", state)
		}
		if err := v.Recycle(); err == nil {
			t.Errorf("recycling the %s invocation succeeded", state)
		}
		if v.ID != id || v.State() != state || v.OnFinish == nil {
			t.Errorf("refused %s invocation %d changed: id %d, %v", state, id, v.ID, v.State())
		}
	}
	eng.Run()
	for _, err := range fromOnFinish {
		if err == nil {
			t.Error("an invocation was resubmitted or recycled from inside its own OnFinish")
		}
	}
	if finishes["running"] != 1 || finishes["queued"] != 1 || len(fromOnFinish) != 2 {
		t.Fatalf("finishes %v, want each invocation once", finishes)
	}
	quiescent(t, eng, rt, running, queued)

	relaunch := func(r *Runtime) {
		t.Helper()
		if err := running.Recycle(); err != nil {
			t.Fatal(err)
		}
		if running.ID != 0 || running.Tr != 0 || running.State() != InvWaiting || running.OnFinish != nil {
			t.Fatalf("recycled storage keeps id %d, Tr %v, %v", running.ID, running.Tr, running.State())
		}
		running.OnFinish = count
		if err := r.Submit(running); err != nil {
			t.Fatal(err)
		}
	}
	eng2, rt2 := newRT(NewHPF(), false)
	relaunch(rt2)
	if err := rt.Submit(running); err == nil {
		t.Error("storage held by one runtime was submitted to another")
	}
	eng2.Run()
	quiescent(t, eng2, rt2, running)
	relaunch(rt)
	eng.Run()
	quiescent(t, eng, rt, running)
	if finishes["running"] != 3 {
		t.Fatalf("the storage finished %d times over three launches", finishes["running"])
	}
}

// TestInvocationSizeClass pins the invocation's size: the server still
// allocates one per launch, and 8 bytes more would move it from the 480 B
// allocation class to the 512 B one.
func TestInvocationSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Invocation{}); n > 480 {
		t.Errorf("Invocation is %d bytes, ceiling 480", n)
	}
}
