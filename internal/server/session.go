package server

import (
	"sort"
	"time"

	"flep/internal/metrics"
)

// Session is one client's standing with the daemon. The paper's runtime
// engine serves "kernels from different processes" (§5); a session is the
// daemon's per-process bookkeeping: identification, accounting, and the
// derived state of the client's host program in Figure 5's machine. A
// session is created on the client's first launch and lives for the
// daemon's lifetime. All fields are guarded by Server.mu.
type Session struct {
	ID        string
	FirstSeen time.Time

	// n counts the client's launches by outcome; only countLocked moves it.
	// A refusal is counted only once the session exists (see outcomes).
	n ledger

	// Runs tallies the client's finished invocations: preemptions,
	// turnaround and waiting sums, and SLO accounting over its
	// deadline-bearing completions.
	Runs              metrics.Tally
	LastFinishVirtual time.Duration
}

// hostStateFor maps a client onto Figure 5's host-program states by how
// many of its launches are in flight: with any, it is blocked awaiting the
// GPU (S2/S3 — the daemon cannot distinguish queued from resident without
// asking the loop, so it reports the conservative S2); with none, it is
// executing CPU code (S1). The cross-part session merge shares it.
func hostStateFor(inFlight int64) string {
	if inFlight > 0 {
		return "S2/S3 (awaiting schedule or GPU)"
	}
	return "S1 (cpu)"
}

// SessionSnapshot is the JSON view of a session for /v1/sessions.
type SessionSnapshot struct {
	ID            string `json:"id"`
	FirstSeenUnix int64  `json:"first_seen_unix_ms"`
	HostState     string `json:"host_state"`
	// Devices lists the fleet shards this client's launches ran on (empty
	// on a standalone daemon; one entry under session affinity).
	Devices          []int   `json:"devices,omitempty"`
	Launches         int64   `json:"launches"`
	InFlight         int64   `json:"in_flight"`
	Completed        int64   `json:"completed"`
	SubmitErrors     int64   `json:"submit_errors"`
	RejectedFull     int64   `json:"rejected_queue_full"`
	RejectedDraining int64   `json:"rejected_draining"`
	RejectedInvalid  int64   `json:"rejected_invalid"`
	RejectedShed     int64   `json:"rejected_best_effort_shed"`
	TimedOut         int64   `json:"timed_out"`
	Canceled         int64   `json:"canceled"`
	DepCanceled      int64   `json:"dep_canceled"`
	RejectedDepFull  int64   `json:"rejected_dep_table_full"`
	Preemptions      int64   `json:"preemptions"`
	MeanTurnUS       float64 `json:"mean_turnaround_us"`
	MeanWaitUS       float64 `json:"mean_waiting_us"`
	LastFinishUS     float64 `json:"last_finish_virtual_us"`
	SLOAttained      int64   `json:"slo_attained"`
	SLOMissed        int64   `json:"slo_missed"`
	MeanSLOMarginUS  float64 `json:"mean_slo_margin_us"`
}

// slots are the wire fields, indexed by the outcome each carries.
func (m *SessionSnapshot) slots() [numOutcomes]*int64 {
	return [numOutcomes]*int64{
		outEnqueued:         &m.Launches,
		outCompleted:        &m.Completed,
		outSubmitError:      &m.SubmitErrors,
		outRejectedFull:     &m.RejectedFull,
		outRejectedShed:     &m.RejectedShed,
		outRejectedDraining: &m.RejectedDraining,
		outRejectedInvalid:  &m.RejectedInvalid,
		outRejectedDepFull:  &m.RejectedDepFull,
		outDepCanceled:      &m.DepCanceled,
		outTimedOut:         &m.TimedOut,
		outCanceled:         &m.Canceled,
	}
}

// session returns the client's session, creating it on first use.
// Callers must hold s.mu.
func (s *Server) session(client string) *Session {
	sess := s.sessions[client]
	if sess == nil {
		sess = &Session{ID: client, FirstSeen: time.Now()}
		s.sessions[client] = sess
	}
	return sess
}

// SessionSnapshots returns all sessions sorted by ID.
func (s *Server) SessionSnapshots() []SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionSnapshot, 0, len(s.sessions))
	for _, sess := range s.sessions {
		snap := SessionSnapshot{
			ID:            sess.ID,
			FirstSeenUnix: sess.FirstSeen.UnixMilli(),
			HostState:     hostStateFor(sess.n.inFlight()),
			InFlight:      sess.n.inFlight(),
			Preemptions:   sess.Runs.Preemptions,
			LastFinishUS:  float64(sess.LastFinishVirtual) / 1e3,
			SLOAttained:   sess.Runs.Attained,
			SLOMissed:     sess.Runs.Missed,
		}
		fields := snap.slots()
		for o := outEnqueued; o < numOutcomes; o++ {
			*fields[o] = sess.n[o]
		}
		// Runs has one entry per completion: a completion is counted on a
		// session its enqueue opened.
		if done := sess.Runs.Completed; done > 0 {
			snap.MeanTurnUS = float64(sess.Runs.Turnaround) / float64(done) / 1e3
			snap.MeanWaitUS = float64(sess.Runs.Waiting) / float64(done) / 1e3
		}
		if n := sess.Runs.Attained + sess.Runs.Missed; n > 0 {
			snap.MeanSLOMarginUS = float64(sess.Runs.Margin) / float64(n) / 1e3
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
