package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flep/internal/flepruntime"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/trace"
)

var updateEventOrder = flag.Bool("update", false, "rewrite the event-order goldens under testdata/eventorder")

// eventOrderGolden is what one scenario pins: the full trace text, the
// number of engine events that fired, and each invocation's outcome.
type eventOrderGolden struct {
	LogSHA256   string             `json:"log_sha256"`
	LogEntries  int                `json:"log_entries"`
	Steps       int                `json:"steps"`
	Invocations []eventOrderResult `json:"invocations"`
}

type eventOrderResult struct {
	ID          int    `json:"id"`
	Kernel      string `json:"kernel"`
	FinishedAt  int64  `json:"finished_at_ns"`
	Preemptions int    `json:"preemptions"`
	Tw          int64  `json:"tw_ns"`
}

type eventOrderLaunch struct {
	at     time.Duration
	bench  string
	class  kernels.InputClass
	tasks  int
	prio   int
	weight float64
	budget time.Duration
	// repeat resubmits the launch from its own OnFinish this many times,
	// the way a closed-loop client does.
	repeat int
}

// eventOrderLaunches is the fixed launch mix every policy runs: four
// closed-loop tenants of long kernels at distinct priorities and weights
// (rotations under FFS, shortest-remaining-time decisions under HPF), a
// stream of short high-priority launches (priority preemptions),
// deadline-bearing launches (EDF risk timers armed, superseded and fired),
// same-instant arrivals (seq tie-breaks), and a late same-priority pair
// whose remaining times differ by less than one preemption overhead (the
// one decision HPF and its naive ablation make differently).
var eventOrderLaunches = []eventOrderLaunch{
	{at: 0, bench: "MM", class: kernels.Small, prio: 1, weight: 1, repeat: 3},
	{at: 0, bench: "SPMV", class: kernels.Small, prio: 1, weight: 0.5, repeat: 3},
	{at: 0, bench: "CFD", class: kernels.Small, prio: 2, weight: 2, repeat: 2},
	{at: 40 * time.Microsecond, bench: "PF", class: kernels.Small, prio: 2, weight: 1.5, repeat: 2},
	{at: 90 * time.Microsecond, bench: "NN", class: kernels.Trivial, prio: 3, budget: 400 * time.Microsecond, repeat: 4},
	{at: 90 * time.Microsecond, bench: "VA", class: kernels.Trivial, tasks: 16, prio: 4, repeat: 5},
	{at: 300 * time.Microsecond, bench: "MD", class: kernels.Small, prio: 2, budget: 30 * time.Millisecond, repeat: 1},
	{at: 700 * time.Microsecond, bench: "NN", class: kernels.Small, tasks: 16, prio: 4, budget: 2 * time.Millisecond, repeat: 3},
	{at: 1500 * time.Microsecond, bench: "PL", class: kernels.Small, prio: 1, weight: 1},
	{at: 1500 * time.Microsecond, bench: "VA", class: kernels.Small, prio: 3, budget: 5 * time.Millisecond, repeat: 2},
	{at: 4 * time.Millisecond, bench: "MM", class: kernels.Large, prio: 1, weight: 1},
	{at: 4 * time.Millisecond, bench: "VA", class: kernels.Trivial, tasks: 16, prio: 5, budget: 300 * time.Microsecond, repeat: 6},
	{at: 9 * time.Millisecond, bench: "SPMV", class: kernels.Large, prio: 2, weight: 0.5, budget: 80 * time.Millisecond},
	{at: 9 * time.Millisecond, bench: "CFD", class: kernels.Trivial, prio: 5, repeat: 3},
	{at: 100 * time.Millisecond, bench: "PF", class: kernels.Small, prio: 2},
	{at: 100*time.Millisecond + 31*time.Microsecond, bench: "NN", class: kernels.Small, prio: 2},
}

// eventOrderSpatialLaunches is the mix for HPF with spatial preemption:
// long low-priority kernels with small high-priority grids arriving while
// they run (spatial drains, guests, expands back to SM 0), a second guest
// candidate arriving while one is resident, and one full-width
// high-priority launch (temporal preemption with spatial enabled).
var eventOrderSpatialLaunches = []eventOrderLaunch{
	{at: 0, bench: "CFD", class: kernels.Large, prio: 1, repeat: 1},
	{at: 0, bench: "MM", class: kernels.Small, prio: 1, repeat: 2},
	{at: 100 * time.Microsecond, bench: "VA", class: kernels.Trivial, tasks: 16, prio: 4},
	{at: 400 * time.Microsecond, bench: "NN", class: kernels.Trivial, tasks: 24, prio: 4},
	{at: 410 * time.Microsecond, bench: "VA", class: kernels.Trivial, tasks: 16, prio: 5},
	{at: 900 * time.Microsecond, bench: "SPMV", class: kernels.Trivial, prio: 3},
	{at: 2 * time.Millisecond, bench: "PF", class: kernels.Small, prio: 3},
	{at: 2500 * time.Microsecond, bench: "VA", class: kernels.Trivial, tasks: 8, prio: 5},
	{at: 6 * time.Millisecond, bench: "MD", class: kernels.Trivial, tasks: 40, prio: 2},
	{at: 6 * time.Millisecond, bench: "NN", class: kernels.Trivial, tasks: 16, prio: 2},
	{at: 13 * time.Millisecond, bench: "VA", class: kernels.Trivial, tasks: 16, prio: 4},
}

// TestEventOrderGoldens runs the fixed mix under every policy (and HPF with
// spatial preemption) with a trace log attached and compares the run with
// the committed golden, generated from the code as it stood before the
// per-step cost work began. Any change to which events fire, in which
// order, or to what the trace says about them shows up as a different
// log hash, step count or invocation outcome.
func TestEventOrderGoldens(t *testing.T) {
	sys := NewSystem(gpu.DefaultParams())
	if err := sys.OfflineAll(); err != nil {
		t.Fatal(err)
	}
	type scenario struct {
		name     string
		opt      Options
		launches []eventOrderLaunch
	}
	var scenarios []scenario
	for _, p := range flepruntime.PolicyNames() {
		scenarios = append(scenarios, scenario{p, Options{Policy: p}, eventOrderLaunches})
	}
	scenarios = append(scenarios, scenario{"hpf-spatial", Options{Policy: "hpf", Spatial: true}, eventOrderSpatialLaunches})
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := runEventOrderScenario(t, sys, sc.opt, sc.launches)
			path := filepath.Join("testdata", "eventorder", sc.name+".json")
			gotJSON, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			gotJSON = append(gotJSON, '\n')
			if *updateEventOrder {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, gotJSON, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, want) {
				t.Errorf("event order diverged from %s (steps, log hash or an invocation's outcome changed)\ngot:\n%s", path, gotJSON)
			}
		})
	}
}

func runEventOrderScenario(t *testing.T, sys *System, opt Options, launches []eventOrderLaunch) eventOrderGolden {
	t.Helper()
	log := &trace.Log{}
	st, err := sys.NewStack(opt, log, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var finished []*flepruntime.Invocation
	var submit func(i, left int)
	submit = func(i, left int) {
		l := launches[i]
		b, err := kernels.ByName(l.bench)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := sys.Resolve(b, l.class, l.tasks)
		if err != nil {
			t.Fatal(err)
		}
		v, err := st.NewInvocation(Launch{
			Shape: sh, Priority: l.prio, Weight: l.weight, Budget: l.budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		v.OnFinish = func(fv *flepruntime.Invocation) {
			finished = append(finished, fv)
			if left > 0 {
				submit(i, left-1)
			}
		}
		if err := st.RT.Submit(v); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for i, l := range launches {
		st.Eng.At(l.at, func() { submit(i, l.repeat) })
		want += 1 + l.repeat
	}
	steps := 0
	for st.Eng.Step() {
		steps++
		if steps > 1_000_000 {
			t.Fatal("scenario did not terminate")
		}
	}
	if len(finished) != want {
		t.Fatalf("%d of %d invocations finished: the scenario wedged", len(finished), want)
	}
	var text bytes.Buffer
	if err := log.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	g := eventOrderGolden{
		LogSHA256:  fmt.Sprintf("%x", sha256.Sum256(text.Bytes())),
		LogEntries: log.Len(),
		Steps:      steps,
	}
	for _, v := range finished {
		g.Invocations = append(g.Invocations, eventOrderResult{
			ID: v.ID, Kernel: v.Kernel, FinishedAt: int64(v.FinishedAt()),
			Preemptions: v.Preemptions, Tw: int64(v.Tw),
		})
	}
	return g
}
