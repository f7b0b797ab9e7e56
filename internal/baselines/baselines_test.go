package baselines

import (
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/sim"
)

func prof(name string) *gpu.KernelProfile {
	return &gpu.KernelProfile{Name: name, ThreadsPerCTA: 256, CTAsPerSM: 8,
		MemoryIntensity: 0.5, ContentionFloor: 0.8}
}

func us(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }

func newDev() (*sim.Engine, *gpu.Device) {
	eng := sim.New()
	return eng, gpu.New(eng, gpu.DefaultParams())
}

func TestMPSSerializesFIFO(t *testing.T) {
	eng, dev := newDev()
	m := NewMPS(dev)
	long := &Job{Kernel: "long", Profile: prof("long"), Tasks: 12000, TaskCost: us(100)}   // 10ms
	short := &Job{Kernel: "short", Profile: prof("short"), Tasks: 1200, TaskCost: us(100)} // 1ms
	m.Submit(long)
	eng.Schedule(us(100), func() { m.Submit(short) })
	eng.Run()
	if short.finishedAt < long.finishedAt {
		t.Fatal("MPS must be FIFO: short finished first")
	}
	// Short's slowdown = (waiting + exec)/exec ≈ 10x+ — the priority
	// inversion Figure 1 demonstrates.
	slowdown := short.Turnaround().Seconds() / us(1000).Seconds()
	if slowdown < 8 {
		t.Fatalf("slowdown = %.1f, expected heavy blocking", slowdown)
	}
}

func TestReorderPicksShortestAtCompletion(t *testing.T) {
	eng, dev := newDev()
	r := NewReorder(dev)
	first := &Job{Kernel: "first", Profile: prof("first"), Tasks: 6000, TaskCost: us(100), Predicted: us(5000)}
	long := &Job{Kernel: "long", Profile: prof("long"), Tasks: 12000, TaskCost: us(100), Predicted: us(10000)}
	short := &Job{Kernel: "short", Profile: prof("short"), Tasks: 1200, TaskCost: us(100), Predicted: us(1000)}
	var order []string
	for _, j := range []*Job{first, long, short} {
		j := j
		j.OnFinish = func(*Job) { order = append(order, j.Kernel) }
	}
	r.Submit(first)
	eng.Schedule(us(100), func() { r.Submit(long); r.Submit(short) })
	eng.Run()
	want := []string{"first", "short", "long"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestReorderDoesNotPreempt(t *testing.T) {
	eng, dev := newDev()
	r := NewReorder(dev)
	long := &Job{Kernel: "long", Profile: prof("long"), Tasks: 12000, TaskCost: us(100), Predicted: us(10000)}
	short := &Job{Kernel: "short", Profile: prof("short"), Tasks: 120, TaskCost: us(100), Predicted: us(100)}
	r.Submit(long)
	eng.Schedule(us(500), func() { r.Submit(short) })
	eng.Run()
	if short.finishedAt < long.finishedAt {
		t.Fatal("reordering cannot preempt a running kernel")
	}
}

func TestSlicerOverheadScalesWithSliceCount(t *testing.T) {
	run := func(sliceTasks int) time.Duration {
		eng, dev := newDev()
		s := NewSlicer(dev, sliceTasks)
		j := &Job{Kernel: "k", Profile: prof("k"), Tasks: 12000, TaskCost: us(100)}
		s.Submit(j)
		eng.Run()
		return j.Turnaround()
	}
	coarse := run(6000) // 2 slices
	fine := run(120)    // 100 slices
	if fine <= coarse {
		t.Fatalf("fine slicing (%v) not slower than coarse (%v)", fine, coarse)
	}
	// Extra cost ≈ 98 extra launches × 6us ≈ 588us.
	extra := fine - coarse
	if extra < us(400) || extra > us(900) {
		t.Fatalf("slicing overhead = %v, want ≈ 588us", extra)
	}
}

func TestSlicerPreemptsAtSliceBoundary(t *testing.T) {
	eng, dev := newDev()
	s := NewSlicer(dev, 120)
	long := &Job{Kernel: "long", Priority: 1, Profile: prof("long"), Tasks: 12000, TaskCost: us(100)}
	high := &Job{Kernel: "high", Priority: 2, Profile: prof("high"), Tasks: 1200, TaskCost: us(100)}
	s.Submit(long)
	eng.Schedule(us(500), func() { s.Submit(high) })
	eng.Run()
	if high.finishedAt > long.finishedAt {
		t.Fatal("high priority should finish first under slicing")
	}
	// High should start within ~1 slice (100us) + launch of its arrival.
	if high.Turnaround() > us(1600) {
		t.Fatalf("high turnaround = %v, too slow for slice-granular preemption", high.Turnaround())
	}
}

func TestSlicerFIFOWithinPriority(t *testing.T) {
	eng, dev := newDev()
	s := NewSlicer(dev, 120)
	a := &Job{Kernel: "a", Priority: 1, Profile: prof("a"), Tasks: 600, TaskCost: us(100)}
	b := &Job{Kernel: "b", Priority: 1, Profile: prof("b"), Tasks: 600, TaskCost: us(100)}
	var order []string
	a.OnFinish = func(*Job) { order = append(order, "a") }
	b.OnFinish = func(*Job) { order = append(order, "b") }
	s.Submit(a)
	s.Submit(b)
	eng.Run()
	if len(order) != 2 || order[0] != "a" {
		t.Fatalf("order = %v", order)
	}
}

func TestMPSBackToBackIdle(t *testing.T) {
	eng, dev := newDev()
	m := NewMPS(dev)
	a := &Job{Kernel: "a", Profile: prof("a"), Tasks: 1200, TaskCost: us(100)}
	m.Submit(a)
	eng.Run()
	b := &Job{Kernel: "b", Profile: prof("b"), Tasks: 1200, TaskCost: us(100)}
	m.Submit(b)
	eng.Run()
	if b.finishedAt == 0 {
		t.Fatal("second job after idle never ran")
	}
}
