package model

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// kindNames spells a Kind in the test logs.
var kindNames = [NumKinds]string{"", "graph-started", "graph-completed", "graph-canceled", "graph-evicted",
	"stage-completed", "stage-canceled", "stage-parked", "stage-released"}

// logTable is a table of stage names that logs every report as one line:
// the kind, then the model, then the value and reason or the makespan.
type logTable struct {
	*Table[string]
	log []string
}

func newLogTable(maxParked, maxGraphs int) *logTable {
	lt := &logTable{}
	lt.Table = NewTable(maxParked, maxGraphs, func(ev Event[string]) {
		line := kindNames[ev.Kind] + " " + ev.Model
		switch {
		case ev.Kind == GraphCompleted:
			line += fmt.Sprintf(" %v", ev.Makespan)
		case ev.Value != "":
			line += " " + ev.Value
		}
		if ev.Reason != "" {
			line += ": " + ev.Reason
		}
		lt.log = append(lt.log, line)
	})
	return lt
}

// admit registers stage name of the client's graph g, declared n stages,
// under model m, with the stage name as its value.
func (lt *logTable) admit(t *testing.T, g string, n int, name string, after ...string) Verdict {
	t.Helper()
	v, _ := lt.Admit(Key{"c", g}, Spec{Stage: name, After: after, Stages: n, Model: "m"}, name)
	return v
}

// take returns the reports since the last take.
func (lt *logTable) take() []string {
	out := lt.log
	lt.log = nil
	return out
}

func wantLog(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s reported\n  %s\nwant\n  %s", what, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestTableReadyParkRelease(t *testing.T) {
	lt := newLogTable(8, 8)
	if v := lt.admit(t, "g", 2, "a"); v != Ready {
		t.Fatalf("a: %v, want Ready", v)
	}
	if v := lt.admit(t, "g", 2, "b", "a"); v != Parked {
		t.Fatalf("b: %v, want Parked", v)
	}
	wantLog(t, "a ready, b parked", lt.take(), "graph-started m", "stage-parked m")
	if lt.Parked() != 1 || lt.Graphs() != 1 || lt.Model(Key{"c", "g"}) != "m" || lt.ParkedByModel()["m"] != 1 {
		t.Fatalf("parked %d (%v) graphs %d model %q", lt.Parked(), lt.ParkedByModel(), lt.Graphs(), lt.Model(Key{"c", "g"}))
	}
	if m, ok := lt.Done(Key{"c", "g"}, "b", 0, 0); ok || m != "" {
		t.Fatalf("Done of a parked stage = %q, %v", m, ok)
	}
	if m, ok := lt.Done(Key{"c", "g"}, "a", 3, 10); !ok || m != "m" {
		t.Fatalf("Done(a) = %q, %v", m, ok)
	}
	wantLog(t, "a done", lt.take(), "stage-released m b")
	if _, ok := lt.Done(Key{"c", "g"}, "b", 10, 25); !ok {
		t.Fatal("Done(b) of the released stage refused")
	}
	wantLog(t, "b done", lt.take(), "graph-completed m 22ns")
	if lt.Parked() != 0 || lt.Graphs() != 0 {
		t.Fatalf("after completion: parked %d graphs %d", lt.Parked(), lt.Graphs())
	}
	// A stage registered after its prerequisite completed is ready at once.
	lt.admit(t, "h", 2, "a")
	lt.Done(Key{"c", "h"}, "a", 0, 1)
	if v := lt.admit(t, "h", 2, "b", "a"); v != Ready {
		t.Fatalf("b after a completed: %v, want Ready", v)
	}
}

// One completion frees several dependents: they are released in the order
// they registered, whatever order their names or prerequisites have.
func TestTableReleasesInRegistrationOrder(t *testing.T) {
	lt := newLogTable(8, 8)
	lt.admit(t, "g", 5, "root")
	lt.admit(t, "g", 5, "z", "root")
	lt.admit(t, "g", 5, "x", "root")
	lt.admit(t, "g", 5, "join", "z", "x")
	lt.admit(t, "g", 5, "y", "root")
	lt.take()
	lt.Done(Key{"c", "g"}, "root", 0, 1)
	wantLog(t, "root done", lt.take(), "stage-released m z", "stage-released m x", "stage-released m y")
}

// A failed stage cancels every parked stage that depends on it, directly
// or through a canceled one, whatever order they registered in; a stage
// arriving after a prerequisite failed is canceled at once.
func TestTableFailureCascades(t *testing.T) {
	lt := newLogTable(8, 8)
	lt.admit(t, "g", 5, "a")
	lt.admit(t, "g", 5, "c", "b")
	lt.admit(t, "g", 5, "b", "a")
	lt.take()
	lt.Fail(Key{"c", "g"}, "a")
	wantLog(t, "a failed", lt.take(),
		"stage-canceled m",
		`stage-canceled m b: prerequisite "a" failed`,
		`stage-canceled m c: prerequisite "a" failed`)
	v, err := lt.Admit(Key{"c", "g"}, Spec{Stage: "d", After: []string{"c"}, Stages: 5, Model: "m"}, "d")
	if v != Canceled || err == nil || !strings.Contains(err.Error(), `prerequisite "c" of stage "d" did not complete`) {
		t.Fatalf("d after canceled c: %v, %v", v, err)
	}
	wantLog(t, "d canceled", lt.take(), "stage-canceled m")
	lt.admit(t, "g", 5, "e")
	lt.Fail(Key{"c", "g"}, "e")
	wantLog(t, "e failed, the graph full", lt.take(), "stage-canceled m", "graph-canceled m")
	if lt.Graphs() != 0 || lt.Parked() != 0 {
		t.Fatalf("graphs %d parked %d after the graph closed", lt.Graphs(), lt.Parked())
	}
}

func TestTableRefusals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup [][]string // stage name, then its prerequisites, in a 3-stage graph
		spec  Spec
		want  Verdict
		err   string
	}{
		{"duplicate stage", [][]string{{"a"}}, Spec{Stage: "a", Stages: 3}, Refused, `already has a stage "a"`},
		{"declared-count mismatch", [][]string{{"a"}}, Spec{Stage: "b", Stages: 4}, Refused, "declares 4 stages but graph"},
		{"graph already full", [][]string{{"a"}, {"b"}, {"c"}}, Spec{Stage: "d", Stages: 3}, Refused, "already has all 3"},
		{"cycle", [][]string{{"a", "b"}}, Spec{Stage: "b", After: []string{"a"}, Stages: 3}, Refused, `cycle through "b"`},
		{"prerequisite that can never exist", [][]string{{"a"}, {"b"}}, Spec{Stage: "c", After: []string{"x"}, Stages: 3}, Refused, `"x" can never exist`},
		{"two unknown prerequisites, one slot", nil, Spec{Stage: "a", After: []string{"x", "y"}, Stages: 2}, Refused, `"x" can never exist`},
		{"table full", [][]string{{"a"}, {"b", "a"}}, Spec{Stage: "c", After: []string{"a"}, Stages: 3}, Full, ErrFull.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lt := newLogTable(1, 8)
			for _, st := range tc.setup {
				lt.admit(t, "g", 3, st[0], st[1:]...)
			}
			before := lt.Parked()
			lt.take()
			tc.spec.Model = "m"
			v, err := lt.Admit(Key{"c", "g"}, tc.spec, tc.spec.Stage)
			if v != tc.want || err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Admit = %v, %v; want %v with %q", v, err, tc.want, tc.err)
			}
			if tc.want == Full && !errors.Is(err, ErrFull) {
				t.Errorf("error %v is not ErrFull", err)
			}
			wantLog(t, "a refusal", lt.take())
			if lt.Parked() != before {
				t.Errorf("parked %d -> %d", before, lt.Parked())
			}
		})
	}
}

// At its graph bound, a new graph evicts the oldest stalled graph (nothing
// parked, nothing in flight); with none stalled the table is full.
func TestTableEvictsStalledGraphsByArrival(t *testing.T) {
	lt := newLogTable(8, 3)
	for _, g := range []string{"g1", "g2", "g3"} {
		lt.admit(t, g, 2, "a")
	}
	lt.Done(Key{"c", "g3"}, "a", 0, 1) // stalled, newest
	lt.Done(Key{"c", "g2"}, "a", 0, 1) // stalled, older
	lt.take()
	if v := lt.admit(t, "g4", 2, "a"); v != Ready {
		t.Fatalf("g4: %v", v)
	}
	wantLog(t, "g4 opens", lt.take(), "graph-canceled m", "graph-evicted m", "graph-started m")
	if lt.Model(Key{"c", "g2"}) != "" || lt.Model(Key{"c", "g3"}) == "" || lt.Model(Key{"c", "g1"}) == "" {
		t.Fatal("evicted a graph other than the oldest stalled one, g2")
	}
	if v := lt.admit(t, "g5", 2, "a"); v != Ready {
		t.Fatalf("g5: %v", v)
	}
	if v := lt.admit(t, "g6", 2, "a"); v != Full {
		t.Fatalf("g6 with g1, g4 and g5 in flight: %v, want Full", v)
	}
}

// Drain cancels every parked stage, graph by graph in arrival order and
// each graph's stages in registration order, and empties the table.
func TestTableDrain(t *testing.T) {
	lt := newLogTable(8, 8)
	lt.admit(t, "g2", 3, "a")
	lt.admit(t, "g2", 3, "c", "a")
	lt.admit(t, "g2", 3, "b", "a")
	lt.admit(t, "g1", 2, "y", "x")
	lt.take()
	lt.Drain("draining")
	wantLog(t, "the drain", lt.take(),
		"stage-canceled m c: draining", "stage-canceled m b: draining", "graph-canceled m",
		"stage-canceled m y: draining", "graph-canceled m")
	if lt.Graphs() != 0 || lt.Parked() != 0 {
		t.Fatalf("graphs %d parked %d after the drain", lt.Graphs(), lt.Parked())
	}
	if p := lt.ParkedByModel(); len(p) != 0 {
		t.Fatalf("ParkedByModel = %v", p)
	}
}

// A stage parked on a name that never registers is canceled when the
// graph's last declared slot fills, and so is every parked stage that
// depends on it; the graph then closes once its live stages finish.
func TestTableCancelsStagesParkedOnANameThatNeverArrives(t *testing.T) {
	lt := newLogTable(8, 8)
	if v := lt.admit(t, "g", 4, "s1", "zz"); v != Parked {
		t.Fatalf("s1 after zz: %v, want Parked", v)
	}
	lt.admit(t, "g", 4, "s2", "s1")
	lt.admit(t, "g", 4, "s3")
	lt.take()
	if v := lt.admit(t, "g", 4, "s4"); v != Ready {
		t.Fatalf("s4: %v, want Ready", v)
	}
	wantLog(t, "the last slot fills", lt.take(),
		`stage-canceled m s1: prerequisite "zz" can never exist: graph "g" has all 4 declared stages`,
		`stage-canceled m s2: prerequisite "s1" was canceled`)
	if lt.Parked() != 0 || lt.Graphs() != 1 {
		t.Fatalf("after the last slot filled: parked %d graphs %d, want 0 and 1", lt.Parked(), lt.Graphs())
	}
	lt.Done(Key{"c", "g"}, "s3", 0, 1)
	lt.Done(Key{"c", "g"}, "s4", 0, 1)
	wantLog(t, "s3 and s4 done", lt.take(), "graph-canceled m")
	if lt.Graphs() != 0 {
		t.Fatalf("graphs %d after every stage is terminal", lt.Graphs())
	}

	// The stage that fills the last slot may itself depend on a doomed
	// one: Admit parks it, and the same call reports its cancel.
	lt.admit(t, "h", 2, "a", "zz")
	lt.take()
	if v := lt.admit(t, "h", 2, "b", "a"); v != Parked {
		t.Fatalf("b after a: %v, want Parked", v)
	}
	wantLog(t, "b fills h", lt.take(), "stage-parked m",
		`stage-canceled m a: prerequisite "zz" can never exist: graph "h" has all 2 declared stages`,
		`stage-canceled m b: prerequisite "a" was canceled`,
		"graph-canceled m")
	if lt.Parked() != 0 || lt.Graphs() != 0 {
		t.Fatalf("after h closed: parked %d graphs %d", lt.Parked(), lt.Graphs())
	}
}
