package server

// deps.go is the dependency-aware half of admission: the glue between
// the event loop and model.Table, the bounded pending-dependency table
// that holds graph stages until their prerequisites complete, releases
// them in registration order, and deterministically cancels descendants
// when a prerequisite fails or is shed.
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
// (depAdmit, Table.Fail) and onLoop (the reads), so no lock guards
// them and a canceled stage is answered where it is canceled.

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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

// depEvent is one report of the server's dependency table; its value is
// the stage's request.
type depEvent = model.Event[*launchReq]

// countModel is the one place the model ledger moves: the event's
// flep_model_* series and the count of the model's /v1/status row go
// together, so the two views reconcile exactly. run is the finished run a
// completed stage carries, nil for every other event.
func (s *Server) countModel(ev depEvent, run *metrics.KernelRun) {
	series := s.met.model[ev.Kind]
	if series == nil {
		panic(fmt.Sprintf("server: counting invalid model event %d", ev.Kind))
	}
	series.Inc()
	row := s.models[ev.Model]
	if row == nil {
		row = &metrics.GraphTally{}
		s.models[ev.Model] = row
	}
	switch ev.Kind {
	case model.GraphStarted:
		row.Started++
	case model.GraphCompleted:
		row.Close(true, ev.Makespan)
	case model.GraphCanceled:
		row.Close(false, 0)
	case model.StageCompleted:
		// The tally judges the SLO verdict; the two series mirror what it
		// moved.
		was := row.Stages
		row.Stages.Add(*run)
		s.met.ModelSLOAttained.Add(row.Stages.Attained - was.Attained)
		s.met.ModelSLOMissed.Add(row.Stages.Missed - was.Missed)
	case model.StageCanceled:
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
	v, err := s.deps.Admit(q.key(), model.Spec{Stage: q.stage, After: q.after, Stages: q.stages, Model: s.foldModel(q.model)}, q)
	switch v {
	case model.Ready, model.Parked:
		// The graph's folded model name is what recording and accounting
		// share, so a replayed trace aggregates under exactly the live rows.
		q.model = s.deps.Model(q.key())
		return v == model.Parked, outUnset, nil
	case model.Canceled:
		return false, outDepCanceled, err
	case model.Full:
		return false, outRejectedDepFull, ErrDepTableFull
	}
	return false, outRejectedInvalid, err
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

// depReport is the table's report function: every event moves the model
// ledger, a released stage waits for admitReleased, and a parked stage
// the table canceled is answered. Runs on the loop goroutine, inside the
// table call that caused the event.
func (s *Server) depReport(ev depEvent) {
	s.countModel(ev, nil)
	switch {
	case ev.Kind == model.StageReleased:
		s.depReady = append(s.depReady, ev.Value)
	case ev.Reason != "":
		s.cancelParked(ev.Value, ev.Reason)
	}
}

// cancelParked answers a parked stage the table canceled (a prerequisite
// failed, or the daemon drained it away) with reason, counting it as
// dep_canceled.
func (s *Server) cancelParked(q *launchReq, reason string) {
	s.count(outDepCanceled, q.client)
	//flepvet:allow blockingsend -- q.done is per-request with capacity 1 (http.go) and sees exactly one send
	q.done <- LaunchResult{
		Client: q.client, Kernel: q.Bench().Name, Class: q.Class().String(),
		Priority: q.Priority, Device: s.device, Canceled: reason,
	}
}

// key is the stage's graph in the dependency table.
func (q *launchReq) key() model.Key { return model.Key{Client: q.client, Graph: q.graph} }

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
	parked := s.deps.ParkedByModel()
	out := make([]ModelStatus, 0, len(s.models))
	for _, name := range slices.Sorted(maps.Keys(s.models)) {
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
	s.onLoop(func() { n = s.deps.Parked() })
	return n
}

// depGraphCount reports how many live graphs the table tracks (the
// flep_model_graphs_tracked gauge).
func (s *Server) depGraphCount() (n int) {
	s.onLoop(func() { n = s.deps.Graphs() })
	return n
}
