package model

// table.go is the dependency rule flepd and the replayer share: a bounded
// pending-dependency table that holds graph stages until their
// prerequisites complete, releases them in registration order, and cancels
// descendants when a prerequisite fails. A Table has one owner and no
// locks; each stage carries an opaque value, and every ledger event goes to
// the owner's report function in the order it happens.

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"
)

// Key names one graph instance: its client and graph id.
type Key struct{ Client, Graph string }

// Kind names one thing that happens to a graph or to one of its stages.
// The zero value is not an event.
type Kind int

const (
	GraphStarted Kind = iota + 1
	GraphCompleted
	GraphCanceled
	GraphEvicted // reported after GraphCanceled for an evicted graph
	// StageCompleted is the owner's to count when Done returns true: only
	// the owner knows how the stage ran.
	StageCompleted
	StageCanceled
	StageParked
	StageReleased
	NumKinds
)

// Event is one report of a Table. Value is a parked stage's value, handed
// back when it is released, or canceled with a Reason; Makespan is a
// completed graph's span from its first submission to its last finish.
type Event[V any] struct {
	Kind     Kind
	Model    string // the graph's, as its first stage named it
	Makespan time.Duration
	Value    V
	Reason   string
}

// Spec is a stage as it registers: Stages is the count its graph
// declares, and Model names the graph's model if the stage opens it.
type Spec struct {
	Stage  string
	After  []string
	Stages int
	Model  string
}

// Verdict is what Admit decided for a stage.
type Verdict int

const (
	Ready    Verdict = iota // every prerequisite completed: the stage is live
	Parked                  // the table keeps the value until a release or a cancel
	Canceled                // a prerequisite already failed: registered canceled
	Refused                 // the spec contradicts the graph: nothing registered
	Full                    // at the table's bounds: nothing registered
)

// ErrFull is Admit's error for a Full verdict.
var ErrFull = errors.New("model: pending-dependency table full")

type state uint8

const (
	parked   state = iota // waiting in the table for prerequisites
	live                  // admitted toward the runtime
	done                  // completed
	failed                // reached admission but was rejected; fails the graph
	canceled              // never admitted: a prerequisite failed, or the table drained
)

type stage[V any] struct {
	state state
	after []string
	v     V // while parked
}

// graph is one live graph instance, deleted the moment every declared
// stage is terminal.
type graph[V any] struct {
	key                              Key
	model                            string
	declared                         int
	seq                              int64 // arrival order, the eviction tie-break
	stages                           map[string]*stage[V]
	order                            []string // registration order: the deterministic iteration path
	parked, inflight, terminal, done int
	failed                           bool          // a stage failed or was canceled
	first, last                      time.Duration // over completed stages, for the makespan
}

// Table is a bounded pending-dependency table; see NewTable.
type Table[V any] struct {
	maxParked, maxGraphs int
	report               func(Event[V])
	graphs               map[Key]*graph[V]
	seq                  int64
	parked               int
}

// NewTable returns an empty table that parks at most maxParked stages and
// tracks at most maxGraphs graphs, reporting every event to report, which
// must not call back into the table.
func NewTable[V any](maxParked, maxGraphs int, report func(Event[V])) *Table[V] {
	return &Table[V]{maxParked: maxParked, maxGraphs: maxGraphs, report: report, graphs: map[Key]*graph[V]{}}
}

// Parked reports how many stages the table holds.
func (t *Table[V]) Parked() int { return t.parked }

// Graphs reports how many graphs the table tracks.
func (t *Table[V]) Graphs() int { return len(t.graphs) }

// Model returns graph k's model, empty when the table does not track it.
func (t *Table[V]) Model(k Key) string {
	if g := t.graphs[k]; g != nil {
		return g.model
	}
	return ""
}

// ParkedByModel counts the parked stages per model.
func (t *Table[V]) ParkedByModel() map[string]int64 {
	out := map[string]int64{}
	for _, g := range t.graphs {
		out[g.model] += int64(g.parked)
	}
	return out
}

func (t *Table[V]) emit(kind Kind, g *graph[V]) { t.report(Event[V]{Kind: kind, Model: g.model}) }

// Admit registers a stage of graph k and decides its path. The error says
// why for every verdict but Ready and Parked.
func (t *Table[V]) Admit(k Key, sp Spec, v V) (Verdict, error) {
	g := t.graphs[k]
	registered := 0
	if g != nil {
		switch registered = len(g.stages); {
		case sp.Stages != g.declared:
			return Refused, fmt.Errorf("stage %q declares %d stages but graph %q was opened with %d",
				sp.Stage, sp.Stages, k.Graph, g.declared)
		case g.stages[sp.Stage] != nil:
			return Refused, fmt.Errorf("graph %q already has a stage %q", k.Graph, sp.Stage)
		case registered >= g.declared:
			return Refused, fmt.Errorf("graph %q already has all %d declared stages", k.Graph, g.declared)
		}
		if cyc := g.cycleThrough(sp.Stage, sp.After); cyc != "" {
			return Refused, fmt.Errorf("stage %q would close a dependency cycle through %q", sp.Stage, cyc)
		}
	}
	// Classify the stage by its prerequisites. One that has not arrived
	// yet is allowed only while the declared count leaves it a slot, so no
	// stage parks on a dependency that cannot exist.
	unknown, firstUnknown, anyBad, badDep, allDone := 0, "", false, "", true
	for _, dep := range sp.After {
		var p *stage[V]
		if g != nil {
			p = g.stages[dep]
		}
		switch {
		case p == nil:
			allDone = false
			if unknown++; firstUnknown == "" {
				firstUnknown = dep
			}
		case p.state == failed || p.state == canceled:
			if !anyBad {
				anyBad, badDep = true, dep
			}
		case p.state != done:
			allDone = false
		}
	}
	if unknown > sp.Stages-(registered+1) {
		return Refused, fmt.Errorf("prerequisite %q can never exist: graph %q has no undeclared stage slots left",
			firstUnknown, k.Graph)
	}
	if !anyBad && !allDone && t.parked >= t.maxParked {
		return Full, ErrFull
	}
	if g == nil {
		if len(t.graphs) >= t.maxGraphs && !t.evictStalled() {
			return Full, ErrFull
		}
		g = &graph[V]{key: k, model: sp.Model, declared: sp.Stages, seq: t.seq, stages: map[string]*stage[V]{}}
		t.seq++
		t.graphs[k] = g
		t.emit(GraphStarted, g)
	}
	st := &stage[V]{after: sp.After}
	g.stages[sp.Stage] = st
	g.order = append(g.order, sp.Stage)
	verdict, err := Ready, error(nil)
	switch {
	case anyBad:
		st.state = canceled
		g.terminal++
		g.failed = true
		t.emit(StageCanceled, g)
		verdict, err = Canceled, fmt.Errorf("canceled: prerequisite %q of stage %q did not complete", badDep, sp.Stage)
	case allDone:
		st.state = live
		g.inflight++
	default:
		st.state, st.v = parked, v
		g.parked++
		t.parked++
		t.emit(StageParked, g)
		verdict = Parked
	}
	if len(g.stages) == g.declared {
		t.cancelUnreachable(g)
	}
	t.closeIfDone(g)
	return verdict, err
}

// cancelUnreachable runs when a graph's last declared slot fills: a parked
// stage waiting on a name that never registered can never run, so it is
// canceled, and so is every parked stage that depends on it. The stage
// that filled the slot may be one of them; Admit still says Parked, and
// its cancel is reported like any parked stage's.
func (t *Table[V]) cancelUnreachable(g *graph[V]) {
	for _, n := range g.order {
		d := g.stages[n]
		if d.state != parked {
			continue
		}
		if i := slices.IndexFunc(d.after, func(dep string) bool { return g.stages[dep] == nil }); i >= 0 {
			t.cancelParked(g, d, fmt.Sprintf("prerequisite %q can never exist: graph %q has all %d declared stages",
				d.after[i], g.key.Graph, g.declared))
			t.cascade(g, fmt.Sprintf("prerequisite %q was canceled", n))
		}
	}
}

// cycleThrough returns the stage a new stage with these prerequisites
// would reach itself through, closing a dependency cycle, or "".
func (g *graph[V]) cycleThrough(name string, after []string) string {
	visited := map[string]bool{}
	stack := slices.Clone(after)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == name {
			return n
		}
		if p := g.stages[n]; p != nil && !visited[n] {
			visited[n] = true
			stack = append(stack, p.after...)
		}
	}
	return ""
}

// evictStalled frees a graph slot by evicting the oldest stalled graph
// (nothing parked, nothing in flight: a client stopped mid-graph). It
// reports false when every graph is active.
func (t *Table[V]) evictStalled() bool {
	var victim *graph[V]
	for _, g := range t.graphs {
		if g.parked == 0 && g.inflight == 0 && (victim == nil || g.seq < victim.seq) {
			victim = g
		}
	}
	if victim == nil {
		return false
	}
	t.emit(GraphCanceled, victim)
	t.emit(GraphEvicted, victim)
	delete(t.graphs, victim.key)
	return true
}

// live returns graph k and its stage name if that stage is live.
func (t *Table[V]) live(k Key, name string) (*graph[V], *stage[V]) {
	if g := t.graphs[k]; g != nil {
		if st := g.stages[name]; st != nil && st.state == live {
			return g, st
		}
	}
	return nil, nil
}

// Done folds a live stage's completion, submitted and finished on the
// virtual clock, into its graph, and releases in registration order every
// parked stage whose prerequisites are now all done. It returns the
// graph's model, or false, changing nothing, if the stage is not live.
func (t *Table[V]) Done(k Key, name string, submitted, finished time.Duration) (string, bool) {
	g, st := t.live(k, name)
	if st == nil {
		return "", false
	}
	st.state = done
	g.inflight--
	g.terminal++
	if g.done++; g.done == 1 || submitted < g.first {
		g.first = submitted
	}
	g.last = max(g.last, finished)
next:
	for _, n := range g.order {
		d := g.stages[n]
		if d.state != parked {
			continue
		}
		for _, dep := range d.after {
			if p := g.stages[dep]; p == nil || p.state != done {
				continue next
			}
		}
		v := d.v
		d.v, d.state = *new(V), live
		g.parked--
		t.parked--
		g.inflight++
		t.report(Event[V]{Kind: StageReleased, Model: g.model, Value: v})
	}
	t.closeIfDone(g)
	return g.model, true
}

// Fail marks a live stage that reached admission but was rejected, and
// cancels every parked stage that depends on it, directly or through a
// canceled one.
func (t *Table[V]) Fail(k Key, name string) {
	g, st := t.live(k, name)
	if st == nil {
		return
	}
	st.state = failed
	g.inflight--
	g.terminal++
	g.failed = true
	t.emit(StageCanceled, g)
	t.cascade(g, fmt.Sprintf("prerequisite %q failed", name))
	t.closeIfDone(g)
}

// cascade cancels, with reason, every parked stage depending on a failed
// or canceled one; passes over the registration order repeat to a
// fixpoint, so a deep chain cancels in one call whatever its declaration
// order.
func (t *Table[V]) cascade(g *graph[V], reason string) {
	for changed := true; changed; {
		changed = false
		for _, n := range g.order {
			d := g.stages[n]
			for _, dep := range d.after {
				if p := g.stages[dep]; d.state == parked && p != nil && (p.state == failed || p.state == canceled) {
					t.cancelParked(g, d, reason)
					changed = true
				}
			}
		}
	}
}

// cancelParked is the one way a parked stage is canceled: its value comes
// back with the reason.
func (t *Table[V]) cancelParked(g *graph[V], d *stage[V], reason string) {
	v := d.v
	d.v, d.state = *new(V), canceled
	g.parked--
	t.parked--
	g.terminal++
	t.report(Event[V]{Kind: StageCanceled, Model: g.model, Value: v, Reason: reason})
}

// closeIfDone deletes a graph whose declared stages are all terminal.
func (t *Table[V]) closeIfDone(g *graph[V]) {
	if g.terminal < g.declared {
		return
	}
	if g.failed || g.done < g.declared {
		t.emit(GraphCanceled, g)
	} else {
		t.report(Event[V]{Kind: GraphCompleted, Model: g.model, Makespan: g.last - g.first})
	}
	delete(t.graphs, g.key)
}

// Drain empties the table once no prerequisite can complete: graph by
// graph in arrival order, it cancels each parked stage with reason, then
// the graph.
func (t *Table[V]) Drain(reason string) {
	for _, g := range slices.SortedFunc(maps.Values(t.graphs), func(a, b *graph[V]) int { return cmp.Compare(a.seq, b.seq) }) {
		for _, n := range g.order {
			if d := g.stages[n]; d.state == parked {
				t.cancelParked(g, d, reason)
			}
		}
		t.emit(GraphCanceled, g)
		delete(t.graphs, g.key)
	}
}
