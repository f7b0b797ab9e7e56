package baselines

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flep/internal/gpu"
)

var updateSchedules = flag.Bool("update", false, "rewrite testdata/seeded_schedules.txt")

// seededSchedule runs one seeded 60-job mix (a quarter submitted at t=0,
// the rest up to 12 ms apart, so most arrive mid-run; priorities 1–3;
// 16–12,000 tasks of 20–200 µs; 2–16 CTAs per SM; predictions off the true
// time by up to 30 %) through the executor newSubmit builds and digests the
// schedule: the engine's step count and every job's (SubmittedAt, Waiting,
// FinishedAt).
func seededSchedule(t *testing.T, newSubmit func(*gpu.Device) func(*Job), seed int64) string {
	eng, dev := newDev()
	submit := newSubmit(dev)
	rng := rand.New(rand.NewSource(seed))
	var at time.Duration
	jobs := make([]*Job, 0, 60)
	for i := 0; i < 60; i++ {
		p := prof(fmt.Sprintf("k%d", i))
		p.CTAsPerSM, p.ThreadsPerCTA = 2+rng.Intn(15), 128
		tasks := 16 + rng.Intn(11985)
		cost := time.Duration(20+rng.Intn(181)) * time.Microsecond
		waves := (tasks + p.CTAsPerSM*dev.NumSMs() - 1) / (p.CTAsPerSM * dev.NumSMs())
		j := &Job{
			Kernel: p.Name, Priority: 1 + rng.Intn(3), Profile: p, Tasks: tasks, TaskCost: cost,
			Predicted: time.Duration(float64(waves) * float64(cost) * (0.7 + 0.6*rng.Float64())),
		}
		jobs = append(jobs, j)
		if rng.Intn(4) == 0 {
			submit(j)
			continue
		}
		at += time.Duration(1+rng.Intn(12000)) * time.Microsecond
		eng.At(at, func() { submit(j) })
	}
	steps := 0
	for eng.Step() {
		steps++
	}
	h := fnv.New64a()
	for _, j := range jobs {
		if j.finishedAt == 0 {
			t.Fatalf("seed %d: %s never finished", seed, j.Kernel)
		}
		for _, d := range []time.Duration{j.submittedAt, j.Waiting(), j.finishedAt} {
			binary.Write(h, binary.LittleEndian, int64(d))
		}
	}
	return fmt.Sprintf("steps=%d end=%d %016x", steps, eng.Now(), h.Sum64())
}

// TestSeededScheduleGoldens pins the schedule each baseline produces for
// five seeded mixes. The file was generated from the three separate
// executors, before they became one; `go test ./internal/baselines -run
// TestSeededScheduleGoldens -update` rewrites it.
func TestSeededScheduleGoldens(t *testing.T) {
	executors := []struct {
		name      string
		newSubmit func(*gpu.Device) func(*Job)
	}{
		{"mps", func(d *gpu.Device) func(*Job) { return NewMPS(d).Submit }},
		{"reorder", func(d *gpu.Device) func(*Job) { return NewReorder(d).Submit }},
		{"slicer-120", func(d *gpu.Device) func(*Job) { return NewSlicer(d, 120).Submit }},
		{"slicer-1000", func(d *gpu.Device) func(*Job) { return NewSlicer(d, 1000).Submit }},
	}
	var got bytes.Buffer
	for _, ex := range executors {
		for seed := int64(1); seed <= 5; seed++ {
			fmt.Fprintf(&got, "%s seed=%d %s\n", ex.name, seed, seededSchedule(t, ex.newSubmit, seed))
		}
	}
	path := filepath.Join("testdata", "seeded_schedules.txt")
	if *updateSchedules {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("baseline schedules diverged from %s\ngot:\n%swant:\n%s", path, got.Bytes(), want)
	}
}
