package flepruntime

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/sim"
)

var updateSeededMix = flag.Bool("update", false, "rewrite testdata/seeded_mix_digests.txt")

const (
	seededMixSeeds    = 40
	seededMixLaunches = 80
	seededMixMaxSteps = 5_000_000
)

// seededMix submits one seeded 80-invocation mix to a fresh runtime and
// returns the engine, the runtime and the invocations in submission order: a quarter
// arrive at the previous one's instant, the rest up to 400 µs later; five
// kernel names; priority 1–3; 8–6,000 tasks of 20–220 µs; L in {1, 2, 8,
// 64}; 2–16 CTAs per SM; Te off the true time by up to 20 %; a third carry
// a 1–40 ms deadline, a third a working set of up to 7 GiB, a fifth are
// model-graph stages. Every draw comes from the seed, so a cell is
// reproduced by its (policy, spatial, seed) coordinates alone.
func seededMix(t *testing.T, policy string, spatial bool, seed int64) (*sim.Engine, *Runtime, []*Invocation) {
	return seededMixWith(t, policy, spatial, seed, mixChange{})
}

// mixChange transforms a seeded mix without touching its draws: every
// arrival later by shift, kernel k<i> named k<rename[i]>, every priority
// times prioScale. The zero value changes nothing.
type mixChange struct {
	shift     time.Duration
	rename    []int
	prioScale int
}

// seededMixWith is seededMix with its mix transformed by ch.
func seededMixWith(t *testing.T, policy string, spatial bool, seed int64, ch mixChange) (*sim.Engine, *Runtime, []*Invocation) {
	pol, err := NewPolicy(policy, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	dev := gpu.New(eng, gpu.DefaultParams())
	rt := New(dev, Config{Policy: pol, EnableSpatial: spatial})
	rng := rand.New(rand.NewSource(seed))
	sms := dev.NumSMs()
	var at time.Duration
	invs := make([]*Invocation, 0, seededMixLaunches)
	for i := 0; i < seededMixLaunches; i++ {
		if i > 0 && rng.Intn(4) != 0 {
			at += time.Duration(rng.Intn(400)+1) * time.Microsecond
		}
		k := rng.Intn(5)
		if ch.rename != nil {
			k = ch.rename[k]
		}
		name := fmt.Sprintf("k%d", k)
		p := prof(name)
		p.CTAsPerSM, p.ThreadsPerCTA = 2+rng.Intn(15), 128
		prio := 1 + rng.Intn(3)
		if ch.prioScale > 0 {
			prio *= ch.prioScale
		}
		// Half uniform, half log-uniform over 8–6,000: device-filling grids
		// to queue behind, and grids that fit in a few SMs to host as guests.
		tasks := 8 + rng.Intn(5993)
		if rng.Intn(2) == 0 {
			tasks = int(8 * math.Pow(750, rng.Float64()))
		}
		cost := time.Duration(20+rng.Intn(201)) * time.Microsecond
		waves := (tasks + p.CTAsPerSM*sms - 1) / (p.CTAsPerSM * sms)
		v := &Invocation{
			Kernel: name, Priority: prio, Profile: p,
			Tasks: tasks, TaskCost: cost, L: []int{1, 2, 8, 64}[rng.Intn(4)],
			Te: time.Duration(float64(waves) * float64(cost) * (0.8 + 0.4*rng.Float64())),
		}
		var budget time.Duration
		if rng.Intn(3) == 0 {
			budget = time.Duration(1+rng.Intn(40)) * time.Millisecond
		}
		if rng.Intn(3) == 0 {
			v.WorkingSet = rng.Int63n(7 << 30)
		}
		v.Dependent = rng.Intn(5) == 0
		invs = append(invs, v)
		eng.At(at+ch.shift, func() {
			if budget > 0 {
				v.Deadline = eng.Now() + budget
			}
			if err := rt.Submit(v); err != nil {
				t.Fatal(err)
			}
		})
	}
	return eng, rt, invs
}

// seededMixDigest runs one cell to quiescence and names its outcome: the
// FNV-64a digest of the schedule, or the way it failed to produce one.
func seededMixDigest(t *testing.T, policy string, spatial bool, seed int64) (out string) {
	defer func() {
		if recover() != nil {
			out = "panic"
		}
	}()
	eng, _, invs := seededMix(t, policy, spatial, seed)
	steps := 0
	for eng.Step() {
		if steps++; steps > seededMixMaxSteps {
			return "runaway"
		}
	}
	h := fnv.New64a()
	put := func(x int64) { binary.Write(h, binary.LittleEndian, x) }
	put(int64(steps))
	put(int64(eng.Now()))
	for _, v := range invs {
		if v.State() != InvFinished {
			return "wedged"
		}
		put(int64(v.ID))
		put(int64(v.FinishedAt()))
		put(int64(v.Tw))
		put(int64(v.Preemptions))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSeededMixDigests pins the schedule every policy produces, with and
// without spatial preemption, for forty seeded random mixes: step count,
// end time and each invocation's (ID, FinishedAt, Tw, Preemptions). The
// file was generated from the code as it stood before the runtime took the
// waiting queue over from its policies; a digest moves only when a schedule
// does, and a cell that panicked, ran away or wedged says so in words.
// `go test ./internal/flepruntime -run TestSeededMixDigests -update`
// rewrites the file.
func TestSeededMixDigests(t *testing.T) {
	var got bytes.Buffer
	for _, policy := range PolicyNames() {
		for _, spatial := range []bool{false, true} {
			for seed := int64(1); seed <= seededMixSeeds; seed++ {
				fmt.Fprintf(&got, "%s spatial=%v seed=%d %s\n", policy, spatial, seed,
					seededMixDigest(t, policy, spatial, seed))
			}
		}
	}
	path := filepath.Join("testdata", "seeded_mix_digests.txt")
	if *updateSeededMix {
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
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells, %s has %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("schedule diverged from %s:\n got %s\nwant %s", path, gotLines[i], wantLines[i])
		}
	}
}

// schedule is one invocation's outcome as the metamorphic relations compare
// it: its finish, less the arrival shift, its queueing time and its
// preemptions.
type schedule struct {
	finish, tw  time.Duration
	preemptions int
}

// seededMixSchedules runs one transformed cell to quiescence and returns
// every invocation's schedule in submission order.
func seededMixSchedules(t *testing.T, policy string, spatial bool, seed int64, ch mixChange) []schedule {
	t.Helper()
	eng, _, invs := seededMixWith(t, policy, spatial, seed, ch)
	for steps := 0; eng.Step(); steps++ {
		if steps > seededMixMaxSteps {
			t.Fatalf("%s spatial=%v seed=%d %+v: runaway", policy, spatial, seed, ch)
		}
	}
	out := make([]schedule, len(invs))
	for i, v := range invs {
		if v.State() != InvFinished {
			t.Fatalf("%s spatial=%v seed=%d %+v: invocation %d wedged", policy, spatial, seed, ch, i)
		}
		out[i] = schedule{v.FinishedAt() - ch.shift, v.Tw, v.Preemptions}
	}
	return out
}

// TestSeededMixMetamorphic runs the cells of TestSeededMixDigests again
// under transformations the schedule must not notice, and requires every
// invocation's (finish - shift, Tw, Preemptions) to be what the plain cell
// produced: every arrival shifted by 1 ms and by 1.234567 ms, the five
// kernel names permuted, and, except under FFS, whose weights are keyed by
// priority, every priority times ten.
func TestSeededMixMetamorphic(t *testing.T) {
	relations := []struct {
		name string
		ch   mixChange
		ffs  bool
	}{
		{"shift 1ms", mixChange{shift: time.Millisecond}, true},
		{"shift 1.234567ms", mixChange{shift: 1234567 * time.Nanosecond}, true},
		{"rename k0-k4 to k4,k2,k0,k3,k1", mixChange{rename: []int{4, 2, 0, 3, 1}}, true},
		{"priority x10", mixChange{prioScale: 10}, false},
	}
	for _, policy := range PolicyNames() {
		for _, spatial := range []bool{false, true} {
			for seed := int64(1); seed <= seededMixSeeds; seed++ {
				base := seededMixSchedules(t, policy, spatial, seed, mixChange{})
				for _, r := range relations {
					if policy == "ffs" && !r.ffs {
						continue
					}
					got := seededMixSchedules(t, policy, spatial, seed, r.ch)
					for i := range base {
						if got[i] != base[i] {
							t.Errorf("%s spatial=%v seed=%d, %s: invocation %d %+v, plain %+v",
								policy, spatial, seed, r.name, i, got[i], base[i])
							break
						}
					}
				}
			}
		}
	}
}
