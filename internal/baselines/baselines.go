// Package baselines implements the systems FLEP is evaluated against, as
// one executor run under three orders:
//
//   - NewMPS: the default co-run on NVIDIA's Multi-Process Service — a
//     non-preemptive FIFO. Because every benchmark's CTAs saturate the
//     hardware dispatcher, a later kernel cannot start until the earlier
//     kernel's queue drains (§2.1), which the model realizes as
//     serialization.
//   - NewReorder: kernel reordering (Li et al. [23], Margiolas et al. [25])
//     — still non-preemptive, but the next kernel is chosen
//     shortest-predicted-first at each completion.
//   - NewSlicer: kernel slicing (GPES/RGEM/PKM [41,19,5]) — each kernel is
//     split into sub-kernels of a fixed CTA count; scheduling decisions
//     happen at slice boundaries, and every slice pays a launch.
package baselines

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"flep/internal/gpu"
)

// Job is one kernel invocation handled by a baseline executor.
type Job struct {
	Kernel   string
	Priority int // higher = more important (used by Reorder and Slicer)
	Profile  *gpu.KernelProfile
	Tasks    int
	TaskCost time.Duration
	// Predicted is the duration estimate used by Reorder.
	Predicted time.Duration
	// OnFinish fires at completion.
	OnFinish func(*Job)

	submittedAt time.Duration
	startedAt   time.Duration
	started     bool
	finishedAt  time.Duration
	doneTasks   int
}

// markStarted records the first time the job reaches the GPU.
func (j *Job) markStarted(now time.Duration) {
	if !j.started {
		j.started = true
		j.startedAt = now
	}
}

// Waiting returns the time from submission to first execution.
func (j *Job) Waiting() time.Duration {
	if !j.started {
		return 0
	}
	return j.startedAt - j.submittedAt
}

// Turnaround returns waiting plus execution time.
func (j *Job) Turnaround() time.Duration { return j.finishedAt - j.submittedAt }

// Executor runs jobs one at a time on the whole device: the head of its
// queue goes next, and a kernel on the GPU is never interrupted.
type Executor struct {
	dev *gpu.Device
	// before orders the queue (nil = arrival order); equals keep arrival
	// order.
	before func(a, b *Job) bool
	// slice is the sub-kernel size in CTAs; 0 launches each kernel whole.
	slice int

	// queue holds every unfinished job, the running one included: a job that
	// sorts ahead of it can arrive while it runs.
	queue   []*Job
	running bool
}

// NewMPS builds the MPS baseline on the device: arrival order.
func NewMPS(dev *gpu.Device) *Executor { return &Executor{dev: dev} }

// NewReorder builds the reordering baseline: priority first, then shortest
// predicted duration.
func NewReorder(dev *gpu.Device) *Executor {
	return &Executor{dev: dev, before: func(a, b *Job) bool {
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return a.Predicted < b.Predicted
	}}
}

// NewSlicer builds the slicing baseline: sub-kernels of sliceTasks CTAs
// (the paper's example slices to the device's concurrent capacity, 120 CTAs
// of size 256), highest priority first at each slice boundary.
func NewSlicer(dev *gpu.Device, sliceTasks int) *Executor {
	if sliceTasks <= 0 {
		panic("baselines: non-positive slice size")
	}
	return &Executor{dev: dev, slice: sliceTasks,
		before: func(a, b *Job) bool { return a.Priority > b.Priority }}
}

// Submit enqueues a job behind every job it does not sort ahead of.
func (x *Executor) Submit(j *Job) {
	j.submittedAt = x.dev.Now()
	i := sort.Search(len(x.queue), func(i int) bool { return x.before != nil && x.before(j, x.queue[i]) })
	x.queue = slices.Insert(x.queue, i, j)
	x.kick()
}

// kick starts the head job's next slice (the whole kernel when unsliced) if
// the GPU is free.
func (x *Executor) kick() {
	if x.running || len(x.queue) == 0 {
		return
	}
	j := x.queue[0]
	x.running = true
	j.markStarted(x.dev.Now())
	end := j.Tasks
	if x.slice > 0 {
		end = min(end, j.doneTasks+x.slice)
	}
	_, err := x.dev.Start(gpu.ExecConfig{
		Profile: j.Profile, TotalTasks: end, DoneTasks: j.doneTasks,
		TaskCost: j.TaskCost, SMLo: 0, SMHi: x.dev.NumSMs(),
		OnComplete: func() {
			x.running = false
			j.doneTasks = end
			if end == j.Tasks {
				// By identity: the head may no longer be the job that ran.
				x.queue = slices.DeleteFunc(x.queue, func(q *Job) bool { return q == j })
				j.finishedAt = x.dev.Now()
				if j.OnFinish != nil {
					j.OnFinish(j)
				}
			}
			x.kick()
		},
	})
	if err != nil {
		panic(fmt.Sprintf("baselines: start %s: %v", j.Kernel, err))
	}
}
