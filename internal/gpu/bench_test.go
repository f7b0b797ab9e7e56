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
// hoisted so only the device's own allocations count. Through Start those
// are the two Execs, whose handles the caller keeps and the device therefore
// never reuses; through StartIn, into storage the caller owns, there are
// none. The seven events a cycle schedules (one a wake the preempt cancels)
// are typed records the engine recycles either way. An event scheduled as a
// closure again costs one allocation in both cases.
func TestPreemptResumeAllocationBudget(t *testing.T) {
	var storage Exec
	for _, tc := range []struct {
		name    string
		start   func(dev *Device, cfg *ExecConfig) (*Exec, error)
		ceiling float64
	}{
		{"Start", func(dev *Device, cfg *ExecConfig) (*Exec, error) { return dev.Start(*cfg) }, 2},
		{"StartIn", func(dev *Device, cfg *ExecConfig) (*Exec, error) { return &storage, dev.StartIn(&storage, cfg) }, 0},
	} {
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
			if _, err := tc.start(dev, &resume); err != nil {
				t.Fatal(err)
			}
		}
		steps := 0
		cycle := func() {
			exec, err := tc.start(dev, &cfg)
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
		if got := testing.AllocsPerRun(200, cycle); got > tc.ceiling {
			t.Errorf("%s: one preempt-resume cycle allocates %v times, ceiling %v", tc.name, got, tc.ceiling)
		}
		// AllocsPerRun runs one warm-up cycle of its own. RunUntil fires the
		// first residency; drain end, drained, cold residency, wake and
		// complete are counted here.
		if want := 201 * 5; steps != want {
			t.Errorf("%s: %d engine steps after the preempt over 201 cycles, want %d", tc.name, steps, want)
		}
	}
}
