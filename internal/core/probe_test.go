package core

import (
	"fmt"
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/sim"
)

// freshSolo is a solo run on its own engine and device, as every probe
// simulation was run before the offline phase shared one probe per kernel.
func freshSolo(t *testing.T, par gpu.Params, profile *gpu.KernelProfile, in kernels.Input, L int) time.Duration {
	t.Helper()
	eng := sim.New()
	dev := gpu.New(eng, par)
	var done time.Duration
	_, err := dev.Start(gpu.ExecConfig{
		Profile: profile, TotalTasks: in.Tasks, TaskCost: in.TaskCost,
		Persistent: L > 0, L: L,
		SMLo: 0, SMHi: dev.NumSMs(),
		OnComplete: func() { done = eng.Now() },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	return done
}

// freshPreemptResume is a preempt+resume on its own engine and device, in
// the same way.
func freshPreemptResume(t *testing.T, par gpu.Params, profile *gpu.KernelProfile, tasks int, cost time.Duration, L int, at time.Duration) time.Duration {
	t.Helper()
	eng := sim.New()
	dev := gpu.New(eng, par)
	var done time.Duration
	start := func(doneTasks int, onDrained func(int)) *gpu.Exec {
		e, err := dev.Start(gpu.ExecConfig{
			Profile: profile, TotalTasks: tasks, DoneTasks: doneTasks,
			TaskCost: cost, Persistent: true, L: L,
			ColdStart: doneTasks > 0,
			SMLo:      0, SMHi: dev.NumSMs(),
			OnComplete: func() { done = eng.Now() },
			OnDrained:  onDrained,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var first *gpu.Exec
	first = start(0, func(rem int) {
		if rem == 0 {
			return
		}
		start(tasks-rem, nil)
	})
	if at > 0 {
		eng.Schedule(at, func() {
			if first.State() == gpu.StateRunning || first.State() == gpu.StateLaunching {
				_ = first.Preempt(dev.NumSMs())
			}
		})
	}
	eng.Run()
	return done
}

// TestProbeMatchesFreshDevice: for every kernel, one probe runs a mix of
// original and persistent solos and preempt+resume runs, with preempts at
// zero (none), inside the launch window, at the instant the CTAs land, mid
// run and after the run, and each reads exactly what the same simulation
// reads on an engine and device of its own. A resume after a preempt that
// caught the first execution still launching has no task done and is not a
// cold start.
func TestProbeMatchesFreshDevice(t *testing.T) {
	s := testSystem(t)
	par := s.Par
	launch := par.LaunchLatency
	for _, b := range kernels.All() {
		a := s.Artifacts(b.Name)
		prof, L := a.Profile, a.L
		p := newProbe(par)
		solo := func(what string, in kernels.Input, L int) time.Duration {
			got, err := p.solo(prof, in, L)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, what, err)
			}
			if want := freshSolo(t, par, prof, in, L); got != want {
				t.Errorf("%s %s: probe %v, fresh device %v", b.Name, what, got, want)
			}
			return got
		}
		preempt := func(what string, in kernels.Input, L int, at time.Duration) time.Duration {
			got := simPreemptResume(p, prof, in.Tasks, in.TaskCost, L, at)
			if want := freshPreemptResume(t, par, prof, in.Tasks, in.TaskCost, L, at); got != want {
				t.Errorf("%s %s at %v: probe %v, fresh device %v", b.Name, what, at, got, want)
			}
			return got
		}

		large, small, trivial := b.Input(kernels.Large), b.Input(kernels.Small), b.Input(kernels.Trivial)
		scaled := b.ScaledInput(0.3, 7)
		solo("trivial original", trivial, 0)
		persistent := solo("large persistent", large, L)
		if got := preempt("large", large, L, 0); got != persistent {
			t.Errorf("%s: a preempt at 0 ran %v, the unpreempted persistent solo %v", b.Name, got, persistent)
		}
		preempt("large in launch", large, L, launch/2)
		solo("small persistent", small, L)
		preempt("large at landing", large, L, launch)
		scaledSolo := solo("scaled persistent", scaled, L)
		if got := preempt("scaled mid run", scaled, L, scaledSolo/2); got <= scaledSolo {
			t.Errorf("%s: preempted mid run in %v, no slower than its solo %v", b.Name, got, scaledSolo)
		}
		solo("large original", large, 0)
		preempt("small after the run", small, L, 2*persistent)
		preempt("trivial in launch, L=1", trivial, 1, launch-1)
		for _, l := range []int{1, L + 3, 2 * L} {
			solo(fmt.Sprintf("large L=%d", l), large, l)
		}
		preempt("scaled a third in", scaled, L, scaledSolo/3)
	}
}
