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
