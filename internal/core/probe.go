package core

import (
	"fmt"
	"time"

	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/sim"
)

// probe is the simulated device the offline phase measures one kernel on:
// an engine and a device that its solo and preempt+resume runs take in
// turn, the two execution storages a preempt+resume needs, and callbacks
// bound once. A run starts on an idle device with the clock rewound to
// zero, so it reads what the same run on a fresh engine and device reads
// (TestProbeMatchesFreshDevice). A probe is single-threaded.
type probe struct {
	eng *sim.Engine
	dev *gpu.Device
	// first runs a solo or the preempted half of a preempt+resume; second
	// the resume.
	first, second gpu.Exec
	cfg           gpu.ExecConfig // the running configuration
	complete      func()
	drained       func(remaining int)
	done          time.Duration // when the last task finished
}

// newProbe builds a probe on a device with parameters par.
func newProbe(par gpu.Params) *probe {
	p := &probe{eng: sim.New()}
	p.dev = gpu.New(p.eng, par)
	p.complete = func() { p.done = p.eng.Now() }
	p.drained = p.resume
	return p
}

// start rewinds the clock and starts the run's first execution.
func (p *probe) start(profile *gpu.KernelProfile, tasks int, cost time.Duration, persistent bool, L int, onDrained func(int)) error {
	p.eng.Rewind()
	p.cfg = gpu.ExecConfig{
		Profile: profile, TotalTasks: tasks, TaskCost: cost,
		Persistent: persistent, L: L,
		SMLo: 0, SMHi: p.dev.NumSMs(),
		OnComplete: p.complete,
		OnDrained:  onDrained,
	}
	return p.dev.StartIn(&p.first, &p.cfg)
}

// resume is the preempted execution's OnDrained: it relaunches the tasks
// left at once. A preempt that lands while the first execution is still
// launching leaves every task, and that resume is not a cold start.
func (p *probe) resume(remaining int) {
	if remaining == 0 {
		return
	}
	p.cfg.DoneTasks = p.cfg.TotalTasks - remaining
	p.cfg.ColdStart = p.cfg.DoneTasks > 0
	p.cfg.OnDrained = nil
	if err := p.dev.StartIn(&p.second, &p.cfg); err != nil {
		panic(fmt.Sprintf("core: simPreemptResume: %v", err))
	}
}

// Fire implements sim.Handler for the probe's one event: the temporal
// preempt of the first execution, unless it has already finished.
func (p *probe) Fire(int, int) {
	if s := p.first.State(); s == gpu.StateRunning || s == gpu.StateLaunching {
		_ = p.first.Preempt(p.dev.NumSMs())
	}
}

// SoloRun measures one kernel configuration's solo runtime on a fresh
// simulated device: the original kernel when L is zero, the
// FLEP-transformed persistent kernel at amortizing factor L otherwise.
func SoloRun(par gpu.Params, profile *gpu.KernelProfile, in kernels.Input, L int) (time.Duration, error) {
	return newProbe(par).solo(profile, in, L)
}

// solo is SoloRun on p.
func (p *probe) solo(profile *gpu.KernelProfile, in kernels.Input, L int) (time.Duration, error) {
	if err := p.start(profile, in.Tasks, in.TaskCost, L > 0, L, nil); err != nil {
		return 0, err
	}
	p.eng.Run()
	return p.done, nil
}

// simSolo is SoloRun on p for inputs the offline phase generates itself,
// where a refused start is a bug.
func simSolo(p *probe, profile *gpu.KernelProfile, in kernels.Input, L int) time.Duration {
	d, err := p.solo(profile, in, L)
	if err != nil {
		panic(fmt.Sprintf("core: simSolo: %v", err))
	}
	return d
}

// simPreemptResume measures on p the elapsed time of a persistent run that
// is temporally preempted at `at` (never, when at is zero) and resumed as
// soon as the drain completes.
func simPreemptResume(p *probe, profile *gpu.KernelProfile, tasks int, cost time.Duration, L int, at time.Duration) time.Duration {
	if err := p.start(profile, tasks, cost, true, L, p.drained); err != nil {
		panic(fmt.Sprintf("core: simPreemptResume: %v", err))
	}
	if at > 0 {
		p.eng.AtFire(at, p, 0, 0)
	}
	p.eng.Run()
	return p.done
}
