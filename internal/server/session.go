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

	Launches         int64 // launches accepted into the queue
	Completed        int64 // invocations finished
	SubmitErrors     int64 // runtime rejections (oversized working set)
	RejectedFull     int64 // 429s (queue full)
	RejectedDraining int64 // 503s (daemon draining)
	RejectedInvalid  int64 // validation rejects (recorded only on existing sessions)
	RejectedShed     int64 // 429s (best-effort shed by SLO admission)
	TimedOut         int64 // handlers that gave up waiting (invocation ran on)
	Canceled         int64 // clients that went away while waiting (invocation ran on)
	DepCanceled      int64 // graph stages canceled before admission (prerequisite failed / drain)
	RejectedDepFull  int64 // 429s (pending-dependency table full)

	// Runs tallies the client's finished invocations: preemptions,
	// turnaround and waiting sums, and SLO accounting over its
	// deadline-bearing completions.
	Runs              metrics.Tally
	LastFinishVirtual time.Duration
}

// hostState maps the session onto Figure 5's host-program states: a
// client with invocations still in flight is blocked awaiting the GPU
// (S2/S3 — the daemon cannot distinguish queued from resident without
// asking the loop, so it reports the conservative S2); an idle client is
// executing CPU code (S1).
func (sess *Session) hostState() string {
	return hostStateFor(sess.Launches, sess.Completed, sess.SubmitErrors)
}

// hostStateFor derives the Figure 5 host state from launch accounting
// (shared with the fleet's cross-shard session merge).
func hostStateFor(launches, completed, submitErrors int64) string {
	if launches > completed+submitErrors {
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
			ID:               sess.ID,
			FirstSeenUnix:    sess.FirstSeen.UnixMilli(),
			HostState:        sess.hostState(),
			Launches:         sess.Launches,
			InFlight:         sess.Launches - sess.Completed - sess.SubmitErrors,
			Completed:        sess.Completed,
			SubmitErrors:     sess.SubmitErrors,
			RejectedFull:     sess.RejectedFull,
			RejectedDraining: sess.RejectedDraining,
			RejectedInvalid:  sess.RejectedInvalid,
			RejectedShed:     sess.RejectedShed,
			TimedOut:         sess.TimedOut,
			Canceled:         sess.Canceled,
			DepCanceled:      sess.DepCanceled,
			RejectedDepFull:  sess.RejectedDepFull,
			Preemptions:      sess.Runs.Preemptions,
			LastFinishUS:     float64(sess.LastFinishVirtual) / 1e3,
			SLOAttained:      sess.Runs.Attained,
			SLOMissed:        sess.Runs.Missed,
		}
		if sess.Completed > 0 {
			snap.MeanTurnUS = float64(sess.Runs.Turnaround) / float64(sess.Completed) / 1e3
			snap.MeanWaitUS = float64(sess.Runs.Waiting) / float64(sess.Completed) / 1e3
		}
		if n := sess.Runs.Attained + sess.Runs.Missed; n > 0 {
			snap.MeanSLOMarginUS = float64(sess.Runs.Margin) / float64(n) / 1e3
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
