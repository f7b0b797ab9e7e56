package gpu

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flep/internal/sim"
)

var updateReuse = flag.Bool("update", false, "rewrite testdata/reuse_digests.txt")

const (
	reuseSeeds = 256
	reuseOps   = 80
)

// reuseSlot is one tenant of the scripted device: the primary (slot 0, high
// SMs) or the spatial guest (slot 1, low SMs), with what its driver knows
// about the kernel it is running.
type reuseSlot struct {
	prof        *KernelProfile
	exec        *Exec
	live        bool // started, and neither stopped nor complete yet
	total, done int
	cost        time.Duration
	l           int
}

// reuseScript drives one device through a seeded sequence of the operations
// the runtime performs on it, and a few it only performs by accident. Every
// draw comes from the seed — including the ones made inside callbacks, so
// the draw order is the event order — and every observable goes into the
// digest: the Observer stream, each callback as (kind, slot, remaining, now),
// and whether each operation was refused.
type reuseScript struct {
	eng     *sim.Engine
	dev     *Device
	rng     *rand.Rand
	slots   [2]reuseSlot
	start   func(slot int, cfg ExecConfig) (*Exec, error)
	closing bool // the scripted part is over: callbacks stop restarting
	h       io.Writer
}

func (s *reuseScript) put(xs ...int64) {
	for _, x := range xs {
		binary.Write(s.h, binary.LittleEndian, x)
	}
}

func (s *reuseScript) op(code int, err error) {
	refused := int64(0)
	if err != nil {
		refused = 1
	}
	s.put(-1, int64(code), refused, int64(s.eng.Now()))
}

// launch starts (or resumes) the slot's kernel on [lo, hi). A finished
// kernel is replaced by a new one of seeded size.
func (s *reuseScript) launch(slot, lo, hi int, cold bool) {
	sl := &s.slots[slot]
	if sl.done >= sl.total {
		sl.total = 200 + s.rng.Intn(6000)
		if s.rng.Intn(4) == 0 {
			sl.total = 1 + s.rng.Intn(40) // fits in a few SMs; finishes inside a drain
		}
		sl.done = 0
		sl.cost = time.Duration(2+s.rng.Intn(60)) * time.Microsecond
		sl.l = []int{1, 2, 8, 32}[s.rng.Intn(4)]
	}
	e, err := s.start(slot, ExecConfig{
		Profile: sl.prof, TotalTasks: sl.total, DoneTasks: sl.done, TaskCost: sl.cost,
		Persistent: true, L: sl.l, SMLo: lo, SMHi: hi, ColdStart: cold,
		OnComplete: func() { s.completed(slot) },
		OnDrained:  func(rem int) { s.drained(slot, rem) },
	})
	s.op(10+slot, err)
	if err == nil {
		sl.exec, sl.live = e, true
	}
}

// primaryRange is where a (re)started primary goes: above a live guest, else
// the whole device or, one time in four, a shrunk range that leaves SMs for
// a later guest or Expand.
func (s *reuseScript) primaryRange() (lo, hi int) {
	n := s.dev.NumSMs()
	if g := &s.slots[1]; g.live {
		_, ghi := g.exec.SMRange()
		return ghi, n
	}
	if s.rng.Intn(4) == 0 {
		return 1 + s.rng.Intn(n-1), n
	}
	return 0, n
}

func (s *reuseScript) drained(slot, rem int) {
	sl := &s.slots[slot]
	s.put(-2, int64(slot), int64(rem), int64(s.eng.Now()))
	sl.done = sl.total - rem
	if sl.exec.State() == StateRunning {
		// Spatial: the primary kept its high SMs. Half the time a guest takes
		// the freed ones at once, as the runtime's pending guest does.
		if lo, _ := sl.exec.SMRange(); slot == 0 && !s.slots[1].live && !s.closing && s.rng.Intn(2) == 0 {
			s.launch(1, 0, lo, false)
		}
		return
	}
	sl.live = false
	// Temporal with work left: half the time the victim goes straight back
	// on, inside the callback, which is where a reused Exec is restarted
	// while its previous run's last event is still on the stack.
	if rem > 0 && !s.closing && s.rng.Intn(2) == 0 {
		lo, hi := 0, s.dev.NumSMs()
		if slot == 0 {
			lo, hi = s.primaryRange()
		} else if p := &s.slots[0]; p.live {
			hi, _ = p.exec.SMRange()
		}
		if lo < hi {
			s.launch(slot, lo, hi, s.rng.Intn(2) == 0)
		}
	}
}

func (s *reuseScript) completed(slot int) {
	sl := &s.slots[slot]
	s.put(-3, int64(slot), int64(s.eng.Now()))
	sl.done, sl.live = sl.total, false
	if slot == 0 && !s.closing && s.rng.Intn(2) == 0 {
		lo, hi := s.primaryRange()
		s.launch(0, lo, hi, false)
	}
}

func (s *reuseScript) step() {
	p, g := &s.slots[0], &s.slots[1]
	n := s.dev.NumSMs()
	switch op := s.rng.Intn(11); op {
	case 0, 1: // run
		s.eng.RunUntil(s.eng.Now() + time.Duration(1+s.rng.Intn(300))*time.Microsecond)
	case 2: // start or resume the primary
		if !p.live {
			lo, hi := s.primaryRange()
			if lo < hi {
				s.launch(0, lo, hi, p.done > 0 && s.rng.Intn(2) == 0)
			}
		}
	case 3: // a guest below the primary, or anywhere when there is none
		if !g.live {
			hi := 1 + s.rng.Intn(n-1)
			if p.live {
				hi, _ = p.exec.SMRange()
			}
			if hi > 0 {
				s.launch(1, 0, hi, false)
			}
		}
	case 4: // temporal preemption, of a launching primary too
		if p.live {
			s.op(op, p.exec.Preempt(n))
		}
	case 5: // spatial preemption, or a wider one while the first drains
		if p.live {
			lo, hi := p.exec.SMRange()
			s.op(op, p.exec.Preempt(1+s.rng.Intn(hi-lo)))
		}
	case 6, 10: // reclaim the low SMs; a live guest or a drain refuses it
		if p.live {
			s.op(op, p.exec.Expand(0))
		}
	case 7: // start and preempt inside the launch latency
		if !p.live {
			lo, hi := s.primaryRange()
			if lo < hi {
				s.launch(0, lo, hi, false)
				if p.live {
					s.eng.RunUntil(s.eng.Now() + time.Duration(s.rng.Intn(8))*time.Microsecond)
					if p.live {
						s.op(op, p.exec.Preempt(n))
					}
				}
			}
		}
	case 8: // preempt so late that the kernel finishes inside the drain
		if p.live && p.exec.State() == StateRunning && p.exec.rate > 0 {
			left := (float64(p.total) - p.exec.done) / p.exec.rate
			at := p.exec.lastSync + time.Duration(left*float64(time.Second)) - time.Microsecond
			if at > s.eng.Now() {
				s.eng.RunUntil(at)
			}
			if p.live {
				s.op(op, p.exec.Preempt(n))
			}
		}
	case 9: // the guest is preempted too
		if g.live {
			s.op(op, g.exec.Preempt(n))
		}
	}
}

// reuseDigest runs one seed's script to quiescence under the given way of
// starting an execution.
func reuseDigest(seed int64, start func(dev *Device, slot int, cfg ExecConfig) (*Exec, error)) string {
	h := fnv.New64a()
	s := &reuseScript{eng: sim.New(), rng: rand.New(rand.NewSource(seed)), h: h}
	s.dev = New(s.eng, DefaultParams())
	s.start = func(slot int, cfg ExecConfig) (*Exec, error) { return start(s.dev, slot, cfg) }
	s.slots[0].prof = testProfile("p", 0.7, 0.6)
	s.slots[1].prof = testProfile("g", 0.2, 0.9)
	s.slots[1].prof.CTAsPerSM = 4
	s.dev.Observer = func(ev Event) {
		s.put(int64(ev.Time), int64(ev.Kind), int64(ev.Kernel[0]), int64(ev.SMLo), int64(ev.SMHi), int64(ev.Remaining))
	}
	for i := 0; i < reuseOps; i++ {
		s.step()
	}
	s.closing = true
	steps := 0
	for s.eng.Step() {
		steps++
	}
	s.put(int64(steps), int64(s.eng.Now()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestReusedStorageMatchesFreshExec pins what a device does under 256 seeded
// operation sequences — Start, run, temporal and spatial Preempt, a wider
// Preempt while draining, Expand, Preempt inside the launch latency, a
// finish inside a drain, a restart from inside OnDrained and OnComplete —
// when every execution is a fresh Exec from Device.Start. The file was
// generated from that code before executions could run in storage their
// caller owns; StartIn into one Exec per tenant, restarted in place up to
// dozens of times a seed, must reproduce every line. `go test ./internal/gpu -run TestReusedStorageMatchesFreshExec
// -update` rewrites the file.
func TestReusedStorageMatchesFreshExec(t *testing.T) {
	path := filepath.Join("testdata", "reuse_digests.txt")
	fresh := func(dev *Device, _ int, cfg ExecConfig) (*Exec, error) { return dev.Start(cfg) }
	var got bytes.Buffer
	for seed := int64(1); seed <= reuseSeeds; seed++ {
		fmt.Fprintf(&got, "seed=%d %s\n", seed, reuseDigest(seed, fresh))
	}
	if *updateReuse {
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
	compareReuseDigests(t, "Device.Start", got.Bytes(), want)

	got.Reset()
	for seed := int64(1); seed <= reuseSeeds; seed++ {
		var storage [2]Exec
		reused := func(dev *Device, slot int, cfg ExecConfig) (*Exec, error) {
			return &storage[slot], dev.StartIn(&storage[slot], &cfg)
		}
		fmt.Fprintf(&got, "seed=%d %s\n", seed, reuseDigest(seed, reused))
	}
	compareReuseDigests(t, "Device.StartIn", got.Bytes(), want)
}

// TestStaleExpandIsInert orders an Expand and, inside its relaunch latency,
// drains the primary and restarts it shrunk in the same storage. The
// relaunch then lands on a run that is resident, not draining and above the
// SMs it would reclaim — everything the landing checks except that it is
// not the run that ordered it.
func TestStaleExpandIsInert(t *testing.T) {
	eng, dev := newDev()
	var primary Exec
	cfg := ExecConfig{
		Profile: testProfile("p", 0.5, 0.8), TotalTasks: 120000, TaskCost: us(10),
		Persistent: true, L: 1, SMLo: 5, SMHi: 15,
	}
	cfg.OnDrained = func(remaining int) {
		resume := cfg
		resume.DoneTasks, resume.OnDrained = cfg.TotalTasks-remaining, nil
		if err := dev.StartIn(&primary, &resume); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.StartIn(&primary, &cfg); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(us(100))
	// Five of fifteen SMs relaunch: 6 µs launch + 5 µs of cold restart. The
	// L=1 drain takes 2.2 µs and the warm restart 6 µs, so the second run is
	// resident at 108.2 µs and the first run's relaunch lands at 111 µs.
	if err := primary.Expand(0); err != nil {
		t.Fatal(err)
	}
	if err := primary.Preempt(dev.NumSMs()); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(us(110))
	if primary.State() != StateRunning || primary.run != 2 {
		t.Fatalf("second run is %v (run %d) at 110us, want it resident", primary.State(), primary.run)
	}
	eng.RunUntil(us(200))
	if lo, hi := primary.SMRange(); lo != 5 || hi != 15 {
		t.Fatalf("the first run's Expand grew the second run to [%d,%d), want [5,15)", lo, hi)
	}
	// The second run's own Expand still lands.
	if err := primary.Expand(0); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(us(300))
	if lo, _ := primary.SMRange(); lo != 0 {
		t.Fatalf("the second run's own Expand left it at SM %d", lo)
	}
}

// TestStartIntoLiveStorageIsAnError covers every way storage can still be
// in use: launching, running, draining, and finished inside a drain with
// the completion callback not yet delivered.
func TestStartIntoLiveStorageIsAnError(t *testing.T) {
	eng, dev := newDev()
	var e Exec
	completed := false
	cfg := ExecConfig{
		Profile: testProfile("k", 0.5, 0.8), TotalTasks: 1200, TaskCost: us(100),
		Persistent: true, L: 4, SMLo: 0, SMHi: 10,
		OnComplete: func() { completed = true },
	}
	elsewhere := cfg
	elsewhere.SMLo, elsewhere.SMHi, elsewhere.OnDrained = 10, 15, nil
	refused := func(when string) {
		t.Helper()
		if err := dev.StartIn(&e, &elsewhere); err == nil {
			t.Fatalf("Start into %s storage accepted", when)
		}
		if (len(dev.execs) > 0) != (e.State() == StateLaunching || e.State() == StateRunning) {
			t.Fatalf("refused Start into %s storage changed the device", when)
		}
	}
	cfg.OnDrained = func(remaining int) {
		if remaining != 0 {
			t.Fatalf("drained with %d remaining, want the finish to win", remaining)
		}
		refused("finished-but-undelivered")
	}
	if err := dev.StartIn(&e, &cfg); err != nil {
		t.Fatal(err)
	}
	refused("launching")
	eng.RunUntil(us(50))
	refused("running")
	// 1200 tasks on 80 slots: done at about 1.5 ms. Preempt 1 µs before.
	eng.RunUntil(e.lastSync + time.Duration((1200-e.done)/e.rate*float64(time.Second)) - us(1))
	if err := e.Preempt(dev.NumSMs()); err != nil {
		t.Fatal(err)
	}
	refused("draining")
	eng.Run()
	if !completed || e.State() != StateDone {
		t.Fatalf("completed=%v state=%v", completed, e.State())
	}
	if err := dev.StartIn(&e, &elsewhere); err != nil {
		t.Fatalf("Start into finished storage: %v", err)
	}
}

func compareReuseDigests(t *testing.T, how string, got, want []byte) {
	t.Helper()
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d seeds, the file has %d", how, len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("%s diverged: got %s, want %s", how, gotLines[i], wantLines[i])
		}
	}
}
