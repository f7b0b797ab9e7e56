package server

// deps.go is the dependency-aware half of admission: a bounded
// pending-dependency table that holds graph stages until their
// prerequisites complete, releases them into the event loop in
// completion order, and deterministically cancels descendants when a
// prerequisite fails or is shed.
//
// Accounting contract: a parked stage is NOT enqueued — it enters the
// exactly-once ledger (Enqueued) only when its prerequisites complete
// and the loop admits it. A stage canceled while parked therefore never
// touches Enqueued/Completed/SubmitErrors; it is counted in the
// dedicated dep_canceled outcome instead, so the ledger's invariant
// Enqueued == Completed + SubmitErrors still closes at rest.
//
// Ownership: the table and the per-model aggregates belong to the loop
// goroutine, like the engine. Handlers reach them only through ctrl
// (depAdmit, depStageFailed) and onLoop (the reads), so no lock guards
// them and a canceled stage is answered where it is canceled.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"flep/internal/metrics"
	"flep/internal/model"
)

// ErrDepTableFull reports a pending-dependency table at capacity: the
// stage cannot be parked (and, for a new graph, no stalled graph could
// be evicted to make room). HTTP 429.
var ErrDepTableFull = errors.New("server: pending-dependency table full")

// maxDepName bounds client-supplied graph/stage/model identifiers: they
// are map keys in server memory and fields in the replay trace.
const maxDepName = 128

// maxModelRows bounds the distinct model names the per-model aggregates
// track; the overflow folds into one synthetic row so a client cycling
// model names cannot grow server memory or metric output without limit.
const maxModelRows = 64

// modelOverflow is the fold target once maxModelRows distinct model
// names exist.
const modelOverflow = "~other"

type depKey struct {
	client string
	graph  string
}

// depState is a registered stage's lifecycle within the table.
type depState int

const (
	// depParked: waiting in the table for prerequisites.
	depParked depState = iota
	// depLive: admitted toward the runtime (in the queue or executing).
	depLive
	// depDone: completed.
	depDone
	// depFailed: reached admission but was rejected (shed, queue full,
	// draining, or a runtime submit error). Fails the graph.
	depFailed
	// depCanceled: never admitted — a prerequisite failed, or the daemon
	// drained away the parked stage.
	depCanceled
)

type depStage struct {
	state depState
	after []string
	q     *launchReq // non-nil only while parked
}

// depGraph is one live graph instance, owned by the loop; deleted
// from the table the moment every declared stage is terminal (its
// accounting then lives on in the per-model aggregates).
type depGraph struct {
	client   string
	id       string
	model    string // folded model name (see foldModel)
	declared int    // stage count the client committed to
	seq      int64  // arrival order, the eviction tie-break

	stages map[string]*depStage
	order  []string // registration order: the deterministic iteration path

	parked   int  // stages in depParked
	inflight int  // stages in depLive
	terminal int  // stages in depDone/depFailed/depCanceled
	done     int  // stages in depDone
	failed   bool // a stage failed or was canceled; the graph cannot complete

	// Virtual-time bounds over completed stages: the graph's makespan is
	// lastFinish − firstSubmit once all stages are done.
	firstSubmitNS int64
	lastFinishNS  int64
}

// modelEvent names one family of the model ledger: something that happens
// to a graph instance or to one of its stages. The zero value is not an
// event, so a path that forgets to name one panics in countModel.
type modelEvent int

const (
	modelGraphStarted modelEvent = iota + 1
	modelGraphCompleted
	modelGraphCanceled
	modelGraphEvicted // counted beside modelGraphCanceled: the eviction series only
	modelStageCompleted
	modelStageCanceled
	modelStageParked   // series only: the row's stages_parked is read live off the table
	modelStageReleased // series only, likewise
	numModelEvents
)

// countModel is the one place the model ledger moves: the event's
// flep_model_* series and the count of the model's /v1/status row go
// together, so the two views reconcile exactly. run is the finished run a
// completed stage carries, nil for every other event; a completed graph's
// makespan is read off g.
func (s *Server) countModel(ev modelEvent, g *depGraph, run *metrics.KernelRun) {
	series := s.met.model[ev]
	if series == nil {
		panic(fmt.Sprintf("server: counting invalid model event %d", ev))
	}
	series.Inc()
	row := s.models[g.model]
	if row == nil {
		row = &metrics.GraphTally{}
		s.models[g.model] = row
	}
	switch ev {
	case modelGraphStarted:
		row.Started++
	case modelGraphCompleted:
		row.Close(true, time.Duration(g.lastFinishNS-g.firstSubmitNS))
	case modelGraphCanceled:
		row.Close(false, 0)
	case modelStageCompleted:
		// The tally judges the SLO verdict; the two series mirror what it
		// moved.
		was := row.Stages
		row.Stages.Add(*run)
		s.met.ModelSLOAttained.Add(row.Stages.Attained - was.Attained)
		s.met.ModelSLOMissed.Add(row.Stages.Missed - was.Missed)
	case modelStageCanceled:
		row.StagesCanceled++
	}
}

// validateDepSpec checks the request's graph spec shape before any
// table state is touched. A request with no graph fields passes.
func validateDepSpec(req *LaunchRequest) error {
	if req.Graph == "" && req.Stage == "" && len(req.After) == 0 && req.Stages == 0 && req.Model == "" {
		return nil
	}
	if req.Graph == "" || req.Stage == "" {
		return fmt.Errorf("graph stages require both graph and stage")
	}
	if len(req.Graph) > maxDepName || len(req.Stage) > maxDepName || len(req.Model) > maxDepName {
		return fmt.Errorf("graph, stage and model names are limited to %d bytes", maxDepName)
	}
	if req.Stages < 1 || req.Stages > model.MaxStages {
		return fmt.Errorf("stages must declare the graph's total stage count (1..%d)", model.MaxStages)
	}
	if len(req.After) > model.MaxAfter {
		return fmt.Errorf("after lists %d prerequisites (max %d)", len(req.After), model.MaxAfter)
	}
	if len(req.After) >= req.Stages {
		return fmt.Errorf("stage %q lists %d prerequisites but the graph declares only %d stages",
			req.Stage, len(req.After), req.Stages)
	}
	seen := map[string]bool{}
	for _, dep := range req.After {
		if dep == "" || len(dep) > maxDepName {
			return fmt.Errorf("after entries must be non-empty stage names of at most %d bytes", maxDepName)
		}
		if dep == req.Stage {
			return fmt.Errorf("stage %q depends on itself", req.Stage)
		}
		if seen[dep] {
			return fmt.Errorf("stage %q lists prerequisite %q twice", req.Stage, dep)
		}
		seen[dep] = true
	}
	return nil
}

// depAdmit registers a graph-bearing launch in the table and decides
// its path: ready (admit through the queue now), parked (the handler
// waits on q.done), or refused with the outcome to count — dep_canceled
// (a prerequisite already failed) or rejected (invalid spec / table
// full / draining). Runs on the loop goroutine (the handler sends it
// through ctrl), so once the loop is draining no new stage can slip into
// the table behind its final parked-stage sweep.
func (s *Server) depAdmit(q *launchReq, st *loopState) (parked bool, refused outcome, err error) {
	if st.draining {
		return false, outRejectedDraining, ErrDraining
	}

	key := depKey{q.client, q.graph}
	g := s.depGraphs[key]
	if g != nil {
		if q.stages != g.declared {
			return false, outRejectedInvalid, fmt.Errorf("stage %q declares %d stages but graph %q was opened with %d",
				q.stage, q.stages, q.graph, g.declared)
		}
		if g.stages[q.stage] != nil {
			return false, outRejectedInvalid, fmt.Errorf("graph %q already has a stage %q", q.graph, q.stage)
		}
		if len(g.stages) >= g.declared {
			return false, outRejectedInvalid, fmt.Errorf("graph %q already has all %d declared stages", q.graph, g.declared)
		}
		if cyc := g.cycleThrough(q.stage, q.after); cyc != "" {
			return false, outRejectedInvalid, fmt.Errorf("stage %q would close a dependency cycle through %q", q.stage, cyc)
		}
	}

	// A prerequisite may name a stage that has not arrived yet — but only
	// if the declared stage count leaves room for it to ever arrive.
	// Rejecting impossible references here keeps the promise that no
	// stage is parked on a dependency that cannot exist.
	registered := 0
	if g != nil {
		registered = len(g.stages)
	}
	unknown := 0
	firstUnknown := ""
	for _, dep := range q.after {
		if g == nil || g.stages[dep] == nil {
			unknown++
			if firstUnknown == "" {
				firstUnknown = dep
			}
		}
	}
	if unknown > q.stages-(registered+1) {
		return false, outRejectedInvalid, fmt.Errorf("prerequisite %q can never exist: graph %q has no undeclared stage slots left",
			firstUnknown, q.graph)
	}

	// Classify the stage from its prerequisites' current states.
	anyBad, allDone := false, true
	badDep := ""
	for _, dep := range q.after {
		var p *depStage
		if g != nil {
			p = g.stages[dep]
		}
		switch {
		case p == nil:
			allDone = false
		case p.state == depDone:
		case p.state == depFailed || p.state == depCanceled:
			anyBad = true
			if badDep == "" {
				badDep = dep
			}
		default:
			allDone = false
		}
	}

	wouldPark := !anyBad && !allDone
	if wouldPark && s.depParked >= s.cfg.DepPending {
		return false, outRejectedDepFull, ErrDepTableFull
	}
	if g == nil {
		if len(s.depGraphs) >= s.cfg.DepGraphs && !s.depEvictStalled() {
			return false, outRejectedDepFull, ErrDepTableFull
		}
		g = &depGraph{
			client:   q.client,
			id:       q.graph,
			model:    s.foldModel(q.model),
			declared: q.stages,
			seq:      s.depSeq,
			stages:   map[string]*depStage{},
		}
		s.depSeq++
		s.depGraphs[key] = g
		s.countModel(modelGraphStarted, g, nil)
	}
	// The folded model name is what recording and accounting share, so a
	// replayed trace aggregates under exactly the live rows.
	q.model = g.model

	d := &depStage{after: q.after}
	g.stages[q.stage] = d
	g.order = append(g.order, q.stage)

	switch {
	case anyBad:
		d.state = depCanceled
		g.terminal++
		g.failed = true
		s.countModel(modelStageCanceled, g, nil)
		s.depCloseIfDone(g)
		return false, outDepCanceled, fmt.Errorf("canceled: prerequisite %q of stage %q did not complete", badDep, q.stage)
	case allDone:
		d.state = depLive
		g.inflight++
		return false, outUnset, nil
	default:
		d.state = depParked
		d.q = q
		g.parked++
		s.depParked++
		s.countModel(modelStageParked, g, nil)
		return true, outUnset, nil
	}
}

// cycleThrough reports (by returning the reached stage name) whether
// adding a stage with the given prerequisites would close a dependency
// cycle: an already-registered chain leading from one of the new stage's
// prerequisites back to the new stage itself.
func (g *depGraph) cycleThrough(stage string, after []string) string {
	visited := map[string]bool{}
	stack := append([]string(nil), after...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == stage {
			return n
		}
		if visited[n] {
			continue
		}
		visited[n] = true
		if p := g.stages[n]; p != nil {
			stack = append(stack, p.after...)
		}
	}
	return ""
}

// foldModel resolves the accounting row for a model name: the name
// itself while the distinct-row budget lasts, the overflow row
// afterwards. Empty means the client sent bare graph coordinates;
// "default" keeps those visible without a per-graph row.
func (s *Server) foldModel(name string) string {
	if name == "" {
		name = "default"
	}
	if _, ok := s.models[name]; ok {
		return name
	}
	if len(s.models) >= maxModelRows {
		return modelOverflow
	}
	return name
}

// depEvictStalled frees one graph slot by evicting the oldest stalled
// graph: no parked stages, nothing in flight, and not yet complete — the
// shape left behind by a client that stopped submitting mid-graph.
// Returns false when every tracked graph is still active.
func (s *Server) depEvictStalled() bool {
	var victim *depGraph
	for _, g := range s.depGraphs {
		if g.parked > 0 || g.inflight > 0 {
			continue
		}
		if victim == nil || g.seq < victim.seq {
			victim = g
		}
	}
	if victim == nil {
		return false
	}
	s.countModel(modelGraphCanceled, victim, nil)
	s.countModel(modelGraphEvicted, victim, nil)
	delete(s.depGraphs, depKey{victim.client, victim.id})
	return true
}

// depStageDone folds a completed stage into its graph and collects the
// parked dependents it unblocks into s.depReady, which the loop drains
// right after its arrival batch. Runs on the loop goroutine (from
// complete).
func (s *Server) depStageDone(q *launchReq, res *LaunchResult, run metrics.KernelRun) {
	g := s.depGraphs[depKey{q.client, q.graph}]
	if g == nil {
		return
	}
	st := g.stages[q.stage]
	if st == nil || st.state != depLive {
		return
	}
	st.state = depDone
	g.inflight--
	g.terminal++
	g.done++
	if g.done == 1 || res.SubmittedVirtualNS < g.firstSubmitNS {
		g.firstSubmitNS = res.SubmittedVirtualNS
	}
	if res.FinishedVirtualNS > g.lastFinishNS {
		g.lastFinishNS = res.FinishedVirtualNS
	}
	s.countModel(modelStageCompleted, g, &run)
	// Release every parked dependent whose prerequisites are now all
	// done, in registration order — the deterministic path through the
	// DAG, so a replayed trace sees the same release sequence.
	for _, name := range g.order {
		d := g.stages[name]
		if d.state != depParked {
			continue
		}
		ready := true
		for _, dep := range d.after {
			p := g.stages[dep]
			if p == nil || p.state != depDone {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		rq := d.q
		d.q = nil
		d.state = depLive
		g.parked--
		s.depParked--
		g.inflight++
		s.countModel(modelStageReleased, g, nil)
		s.depReady = append(s.depReady, rq)
	}
	s.depCloseIfDone(g)
}

// depStageFailed marks a stage that reached admission but was rejected
// (shed, queue full, draining, or a runtime submit error) and cancels
// every parked stage that transitively depends on a failed or canceled
// one. Passes over the registration-order slice repeat until a
// fixpoint, so deep chains cancel in one call regardless of declaration
// order. Runs on the loop goroutine: from admit, or through ctrl when
// the handler's enqueue failed.
func (s *Server) depStageFailed(q *launchReq) {
	g := s.depGraphs[depKey{q.client, q.graph}]
	if g == nil {
		return
	}
	st := g.stages[q.stage]
	if st == nil || st.state != depLive {
		return
	}
	st.state = depFailed
	g.inflight--
	g.terminal++
	g.failed = true
	s.countModel(modelStageCanceled, g, nil)
	reason := fmt.Sprintf("prerequisite %q failed", q.stage)
	for changed := true; changed; {
		changed = false
		for _, name := range g.order {
			d := g.stages[name]
			if d.state != depParked {
				continue
			}
			for _, dep := range d.after {
				if p := g.stages[dep]; p != nil && (p.state == depFailed || p.state == depCanceled) {
					s.cancelParked(g, d, reason)
					changed = true
					break
				}
			}
		}
	}
	s.depCloseIfDone(g)
}

// cancelParked is the one way a parked stage is canceled — a
// prerequisite failed, or the daemon drained it away. The stage leaves
// the table, counts as dep_canceled and is answered with reason.
func (s *Server) cancelParked(g *depGraph, d *depStage, reason string) {
	q := d.q
	d.q, d.state = nil, depCanceled
	g.parked--
	s.depParked--
	g.terminal++
	s.countModel(modelStageCanceled, g, nil)
	s.count(outDepCanceled, q.client)
	//flepvet:allow blockingsend -- q.done is per-request with capacity 1 (http.go) and sees exactly one send
	q.done <- LaunchResult{
		Client: q.client, Kernel: q.Bench.Name, Class: q.Class.String(),
		Priority: q.Priority, Device: s.device, Canceled: reason,
	}
}

// depCloseIfDone retires a graph whose declared stages are all terminal:
// its outcome folds into the per-model aggregates and the table entry is
// deleted, so the table only ever holds live graphs.
func (s *Server) depCloseIfDone(g *depGraph) {
	if g.terminal < g.declared {
		return
	}
	if g.failed || g.done < g.declared {
		s.countModel(modelGraphCanceled, g, nil)
	} else {
		s.countModel(modelGraphCompleted, g, nil)
	}
	delete(s.depGraphs, depKey{g.client, g.id})
}

// depDrainCancel sweeps the table at drain time: with the engine idle
// and the queue empty, no parked stage's prerequisites can ever
// complete, so every remaining graph is canceled deterministically
// instead of leaving handlers to time out. Runs on the loop goroutine
// just before it exits.
func (s *Server) depDrainCancel() {
	graphs := make([]*depGraph, 0, len(s.depGraphs))
	for _, g := range s.depGraphs {
		graphs = append(graphs, g)
	}
	sort.Slice(graphs, func(i, j int) bool { return graphs[i].seq < graphs[j].seq })
	for _, g := range graphs {
		for _, name := range g.order {
			d := g.stages[name]
			if d.state == depParked {
				s.cancelParked(g, d, "daemon draining")
			}
		}
		s.countModel(modelGraphCanceled, g, nil)
		delete(s.depGraphs, depKey{g.client, g.id})
	}
}

// admitReleased enqueues every stage the last simulation step unblocked.
// Released stages bypass the bounded submit channel — their population
// is bounded by the table itself — and enter the exactly-once ledger
// here, at the moment they become real work. Runs on the loop
// goroutine, after admitAll.
func (s *Server) admitReleased() {
	if len(s.depReady) == 0 {
		return
	}
	now := time.Now()
	for i := 0; i < len(s.depReady); i++ {
		q := s.depReady[i]
		s.depReady[i] = nil
		// Parked until now: this is the stage's first and only enqueue count.
		s.countEnqueued(q)
		s.queued.Add(1) // admit releases the reservation
		if q.Budget > 0 {
			s.lcOutstanding.Add(1)
		}
		q.admitReal = now
		s.admit(q)
	}
	s.depReady = s.depReady[:0]
}

// ModelStatus is one model's row in the /v1/status models block: its
// metrics.GraphTally on the wire, plus the stages parked right now. Counts
// reconcile exactly with the flep_model_* metric families: countModel
// moves both.
type ModelStatus struct {
	Model           string  `json:"model"`
	GraphsStarted   int64   `json:"graphs_started"`
	GraphsCompleted int64   `json:"graphs_completed"`
	GraphsCanceled  int64   `json:"graphs_canceled"`
	StagesCompleted int64   `json:"stages_completed"`
	StagesCanceled  int64   `json:"stages_canceled"`
	StagesParked    int64   `json:"stages_parked"`
	SLOAttained     int64   `json:"slo_attained"`
	SLOMissed       int64   `json:"slo_missed"`
	AttainRate      float64 `json:"attain_rate,omitempty"`
	MeanMakespanUS  float64 `json:"mean_makespan_us,omitempty"`
}

// modelStatuses snapshots the per-model aggregates, sorted by name. Runs
// on the loop goroutine (Status reads it through onLoop).
func (s *Server) modelStatuses() []ModelStatus {
	if len(s.models) == 0 {
		return nil
	}
	parked := map[string]int64{}
	for _, g := range s.depGraphs {
		parked[g.model] += int64(g.parked)
	}
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ModelStatus, 0, len(names))
	for _, name := range names {
		t := s.models[name]
		row := ModelStatus{
			Model:           name,
			GraphsStarted:   t.Started,
			GraphsCompleted: t.Completed,
			GraphsCanceled:  t.Canceled,
			StagesCompleted: t.Stages.Completed,
			StagesCanceled:  t.StagesCanceled,
			StagesParked:    parked[name],
			SLOAttained:     t.Stages.Attained,
			SLOMissed:       t.Stages.Missed,
			AttainRate:      t.Stages.AttainRate(),
		}
		if t.Completed > 0 {
			row.MeanMakespanUS = float64(t.Makespan) / float64(t.Completed) / 1e3
		}
		out = append(out, row)
	}
	return out
}

// depParkedCount reports how many stages are held in the table (the
// flep_model_stages_held gauge).
func (s *Server) depParkedCount() (n int) {
	s.onLoop(func() { n = s.depParked })
	return n
}

// depGraphCount reports how many live graphs the table tracks (the
// flep_model_graphs_tracked gauge).
func (s *Server) depGraphCount() (n int) {
	s.onLoop(func() { n = len(s.depGraphs) })
	return n
}
