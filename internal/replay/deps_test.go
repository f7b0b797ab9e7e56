package replay

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"flep/internal/flepruntime"
)

// graphTrace builds a flepload-sourced trace of the given records, each
// given a sequence number, one device unknown, and its benchmarks listed.
func graphTrace(recs ...Record) *Trace {
	tr := &Trace{Header: Header{Magic: true, TraceVersion: Version, Source: SourceFlepload, Benchmarks: []string{"NN", "VA"}}}
	for i, r := range recs {
		r.Seq, r.Device = int64(i+1), -1
		if r.Class == "" {
			r.Class = "small"
		}
		if r.Priority == 0 {
			r.Priority = 1
		}
		tr.Records = append(tr.Records, r)
	}
	return tr
}

// replayInvocations runs the trace once and returns the invocation each
// record was submitted as, by record index.
func replayInvocations(t *testing.T, tr *Trace, cfg ReplayConfig) (*Summary, []flepruntime.Invocation) {
	t.Helper()
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rp.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != len(tr.Records) {
		t.Fatalf("completed %d of %d records", sum.Completed, len(tr.Records))
	}
	return sum, rp.store.Load().invs
}

const ms = int64(time.Millisecond)

// On one device, a stage whose prerequisite is still running parks; a
// launch of another tenant recorded while it waits is submitted at its own
// arrival, and the stage right when its prerequisite finishes. The parked
// stage's own tenant keeps its recorded order: its next launch follows the
// stage.
func TestParkedStageLeavesLaterArrivalsOnTime(t *testing.T) {
	tr := graphTrace(
		Record{At: 0, Client: "g", Bench: "NN", Class: "large", GraphID: "g1", Stage: "a"},
		Record{At: ms, Client: "g", Bench: "VA", GraphID: "g1", Stage: "b", After: []string{"a"}},
		Record{At: 5 * ms / 4, Client: "g", Bench: "VA"},
		Record{At: 3 * ms / 2, Client: "hp", Bench: "VA", Priority: 2},
	)
	sum, inv := replayInvocations(t, tr, ReplayConfig{Policy: "hpf"})
	a, b, next, hp := &inv[0], &inv[1], &inv[2], &inv[3]
	if a.FinishedAt() <= 3*time.Millisecond/2 {
		t.Fatalf("stage a finished at %v, before the launch it should overlap", a.FinishedAt())
	}
	if got := hp.SubmittedAt(); got != 3*time.Millisecond/2 {
		t.Errorf("launch recorded at 1.5ms submitted at %v", got)
	}
	if b.SubmittedAt() != a.FinishedAt() {
		t.Errorf("stage b submitted at %v, its prerequisite finished at %v", b.SubmittedAt(), a.FinishedAt())
	}
	if next.SubmittedAt() != b.SubmittedAt() || next.ID != b.ID+1 {
		t.Errorf("the tenant's next launch was submitted at %v as launch %d, want right after stage b (%v, launch %d)",
			next.SubmittedAt(), next.ID, b.SubmittedAt(), b.ID)
	}
	if sum.Divergence.Dependency != 0 || len(sum.Models) != 1 || sum.Models[0].GraphsCompleted != 1 {
		t.Errorf("dependency divergence %d, models %+v", sum.Divergence.Dependency, sum.Models)
	}
}

// On two routed devices, a stage is not submitted before its prerequisite
// finishes in virtual time, and it runs on its graph's device: the second
// launch there, though least-loaded routing would pick the idle one.
func TestRoutedStageFollowsItsGraph(t *testing.T) {
	tr := graphTrace(
		Record{At: 0, Client: "g", Bench: "NN", Class: "large", GraphID: "g1", Stage: "a"},
		Record{At: ms, Client: "g", Bench: "VA", GraphID: "g1", Stage: "b", After: []string{"a"}},
	)
	_, inv := replayInvocations(t, tr, ReplayConfig{Policy: "hpf", Devices: 2})
	a, b := &inv[0], &inv[1]
	if b.SubmittedAt() < a.FinishedAt() {
		t.Errorf("stage b submitted at %v, before its prerequisite finished at %v", b.SubmittedAt(), a.FinishedAt())
	}
	if a.ID != 1 || b.ID != 2 {
		t.Errorf("launch numbers a=%d b=%d, want 1 and 2 on one device", a.ID, b.ID)
	}
}

// A stage naming a prerequisite no record of the trace carries still runs,
// and the replay counts it once as a dependency divergence.
func TestAbsentPrerequisiteIsOneDivergence(t *testing.T) {
	tr := graphTrace(
		Record{At: 0, Client: "g", Bench: "VA", GraphID: "g1", Stage: "a"},
		Record{At: ms, Client: "g", Bench: "VA", GraphID: "g1", Stage: "b", After: []string{"a", "ghost"}},
	)
	sum, _ := replayInvocations(t, tr, ReplayConfig{Policy: "hpf"})
	if sum.Divergence.Dependency != 1 {
		t.Errorf("divergence.dependency = %d, want 1", sum.Divergence.Dependency)
	}
	if m := sum.Models; len(m) != 1 || m[0].GraphsCompleted != 1 || m[0].StagesCompleted != 2 {
		t.Errorf("models = %+v, want the graph completed", m)
	}
}

// A prerequisite the replayed runtime refuses fails its graph as it does in
// the daemon: its parked dependent is canceled, never submitted, and
// counted as a canceled stage and a dependency divergence; the tenant's
// launch held behind the dependent then runs.
func TestFailedPrerequisiteCancelsItsDependents(t *testing.T) {
	tr := graphTrace(
		Record{At: 0, Client: "g", Bench: "NN", Class: "large", GraphID: "g1", Stage: "a"},
		Record{At: ms, Client: "g", Bench: "VA", GraphID: "g1", Stage: "b", After: []string{"a"}},
		Record{At: ms, Client: "g", Bench: "VA", GraphID: "g1", Stage: "c", After: []string{"b"}, TasksOverride: 1 << 34},
		Record{At: 2 * ms, Client: "g", Bench: "VA"},
		Record{At: 2 * ms, Client: "g", Bench: "VA", GraphID: "g1", Stage: "d", After: []string{"c"}},
	)
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rp.Run(ReplayConfig{Policy: "hpf"})
	if err != nil {
		t.Fatal(err)
	}
	if sum.SubmitErrors != 1 || sum.Completed != 3 {
		t.Fatalf("submit errors %d, completed %d; want 1 and 3 (a, b, the plain launch)", sum.SubmitErrors, sum.Completed)
	}
	if sum.Divergence.Dependency != 1 {
		t.Errorf("divergence.dependency = %d, want 1 (stage d)", sum.Divergence.Dependency)
	}
	if m := sum.Models; len(m) != 1 || m[0].GraphsCompleted != 0 || m[0].StagesCompleted != 2 || m[0].StagesCanceled != 2 {
		t.Errorf("models = %+v, want 2 stages completed and c, d canceled", m)
	}
}

// On random well-formed graph traces, whose dependents may arrive before
// their prerequisites, every record runs, none is submitted before its own
// arrival or before a prerequisite finished, and two runs agree.
func TestRandomGraphTracesKeepDependencyOrder(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var recs []Record
		stages := map[string][]string{} // client/graph -> its stages so far
		for i := 0; i < 4+rng.Intn(24); i++ {
			r := Record{At: int64(rng.Intn(8)) * ms / 2, Client: fmt.Sprint("c", rng.Intn(3)),
				Bench: []string{"VA", "NN"}[rng.Intn(2)], Priority: 1 + rng.Intn(2)}
			if rng.Intn(3) > 0 {
				r.GraphID, r.Stage = fmt.Sprint("g", rng.Intn(3)), fmt.Sprint("s", i)
				k := r.Client + "/" + r.GraphID
				for _, j := range rng.Perm(len(stages[k]))[:min(len(stages[k]), rng.Intn(3))] {
					r.After = append(r.After, stages[k][j])
				}
				stages[k] = append(stages[k], r.Stage)
			}
			recs = append(recs, r)
		}
		tr := graphTrace(recs...)
		for _, devices := range []int{1, 2} {
			cfg := ReplayConfig{Policy: "hpf", Devices: devices, Seed: seed}
			sum, inv := replayInvocations(t, tr, cfg)
			again, _ := replayInvocations(t, tr, cfg)
			if !bytes.Equal(mustJSON(t, sum), mustJSON(t, again)) || sum.Divergence.Dependency != 0 {
				t.Fatalf("seed %d, %d devices: runs differ or diverged: %+v", seed, devices, sum.Divergence)
			}
			for i, r := range tr.Records {
				if inv[i].SubmittedAt() < time.Duration(r.At) {
					t.Fatalf("seed %d, %d devices: record %d submitted at %v, before its arrival", seed, devices, i, inv[i].SubmittedAt())
				}
				for _, dep := range r.After {
					for j, p := range tr.Records {
						if p.Client == r.Client && p.GraphID == r.GraphID && p.Stage == dep && inv[i].SubmittedAt() < inv[j].FinishedAt() {
							t.Fatalf("seed %d, %d devices: %s submitted at %v, before %s finished at %v",
								seed, devices, r.Stage, inv[i].SubmittedAt(), dep, inv[j].FinishedAt())
						}
					}
				}
			}
		}
	}
}
