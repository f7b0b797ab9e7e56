package gpu

import "testing"

// BenchmarkPreemptResumeCycle is one full Start → Preempt at the half-way
// point → drain → cold restart → completion on a fresh device: the seven
// engine events a temporal preemption costs the device model.
func BenchmarkPreemptResumeCycle(b *testing.B) {
	prof := testProfile("k", 0.5, 0.8)
	const tasks = 12000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, dev := newDev()
		cfg := ExecConfig{
			Profile: prof, TotalTasks: tasks, TaskCost: us(10),
			Persistent: true, L: 4, SMLo: 0, SMHi: dev.NumSMs(),
			OnComplete: func() {},
		}
		cfg.OnDrained = func(remaining int) {
			resume := cfg
			resume.DoneTasks, resume.ColdStart, resume.OnDrained = tasks-remaining, true, nil
			if _, err := dev.Start(resume); err != nil {
				b.Fatal(err)
			}
		}
		exec, err := dev.Start(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng.Schedule(us(500), func() {
			if err := exec.Preempt(dev.NumSMs()); err != nil {
				b.Fatal(err)
			}
		})
		eng.Run()
	}
}

// TestPreemptResumeAllocationBudget is the device's share of the rotation
// budget (flepruntime's TestRotationAllocationBudget): one Start → Preempt →
// drained → cold Start → complete cycle on a long-lived device, callbacks
// hoisted so only the device's own allocations count. Those are the two
// Execs, whose handles the caller keeps; the seven events it schedules (one
// a wake the preempt cancels) are typed records the engine recycles. An
// event scheduled as a closure again costs one allocation here.
func TestPreemptResumeAllocationBudget(t *testing.T) {
	eng, dev := newDev()
	const tasks = 12000
	cfg := ExecConfig{
		Profile: testProfile("k", 0.5, 0.8), TotalTasks: tasks, TaskCost: us(10),
		Persistent: true, L: 4, SMLo: 0, SMHi: dev.NumSMs(),
		OnComplete: func() {},
	}
	resume := cfg
	resume.ColdStart = true
	cfg.OnDrained = func(remaining int) {
		resume.DoneTasks = tasks - remaining
		if _, err := dev.Start(resume); err != nil {
			t.Fatal(err)
		}
	}
	steps := 0
	cycle := func() {
		exec, err := dev.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + us(500))
		if err := exec.Preempt(dev.NumSMs()); err != nil {
			t.Fatal(err)
		}
		for eng.Step() {
			steps++
		}
	}
	cycle() // grow the engine's records and the device's exec list
	steps = 0
	const ceiling = 2
	if got := testing.AllocsPerRun(200, cycle); got > ceiling {
		t.Errorf("one preempt-resume cycle allocates %v times, ceiling %d", got, ceiling)
	}
	// AllocsPerRun runs one warm-up cycle of its own. RunUntil fires the
	// first residency; drain end, drained, cold residency, wake and complete
	// are counted here.
	if want := 201 * 5; steps != want {
		t.Errorf("%d engine steps after the preempt over 201 cycles, want %d", steps, want)
	}
}
