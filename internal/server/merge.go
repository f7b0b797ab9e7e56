package server

import (
	"sort"

	"flep/internal/metrics"
)

// merge.go is the one place the serving tier's aggregation rules live. A
// fleet merges its shards' snapshots in process and a cluster gateway
// merges its nodes' /v1/status and /v1/sessions bodies off the wire; both
// call the pure functions here, so a counter added to Status or
// SessionSnapshot is either merged for every tier or (merge_test.go)
// fails a test.

// add folds another part's request accounting into c.
func (c *counters) add(o counters) {
	into, from := c.slots(), o.slots()
	for f := outEnqueued; f < numOutcomes; f++ {
		*into[f] += *from[f]
	}
	c.SLOAttained += o.SLOAttained
	c.SLOMissed += o.SLOMissed
}

// weightedMean merges two means that were taken over n0 and n1 samples.
func weightedMean(m0 float64, n0 int64, m1 float64, n1 int64) float64 {
	if n0+n1 == 0 {
		return m0
	}
	return (m0*float64(n0) + m1*float64(n1)) / float64(n0+n1)
}

// MergeStatus aggregates the status snapshots of the parts of one serving
// tier (a fleet's shards, a cluster's nodes) into the tier's own view.
// Identity fields (policy, spatial, device, benchmarks) come from the
// first part — the parts of one tier are configured alike. Counters and
// the queue, memory, session and trace figures sum; the SLO margin is
// re-weighted by the deadline-bearing completions behind it; model rows
// merge by name; the virtual clock is the furthest any part has run. The
// aggregate is draining if any part is, exactly-once only if every part
// is, and paused only if every part is paused (never for zero parts): a
// tier with one running part still makes progress. UptimeMS and the
// per-part breakdown (Devices / Nodes) belong to the caller.
func MergeStatus(parts []Status) Status {
	agg := Status{ExactlyOnceOK: true, Paused: len(parts) > 0}
	if len(parts) > 0 {
		first := parts[0]
		agg.Policy, agg.Spatial, agg.Device, agg.Benchmarks = first.Policy, first.Spatial, first.Device, first.Benchmarks
	}
	for _, p := range parts {
		agg.Counters.add(p.Counters)
		agg.Models = mergeModelRows(agg.Models, p.Models)
		agg.SLO.MeanMarginUS = weightedMean(agg.SLO.MeanMarginUS, agg.SLO.Attained+agg.SLO.Missed,
			p.SLO.MeanMarginUS, p.SLO.Attained+p.SLO.Missed)
		agg.SLO.Attained += p.SLO.Attained
		agg.SLO.Missed += p.SLO.Missed
		agg.SLO.BestEffortShed += p.SLO.BestEffortShed
		agg.QueueLen += p.QueueLen
		agg.QueueCap += p.QueueCap
		agg.MemoryFreeBytes += p.MemoryFreeBytes
		agg.Sessions += p.Sessions
		agg.TraceEntries += p.TraceEntries
		agg.TraceDropped += p.TraceDropped
		agg.Paused = agg.Paused && p.Paused
		agg.Draining = agg.Draining || p.Draining
		agg.ExactlyOnceOK = agg.ExactlyOnceOK && p.ExactlyOnceOK
		if p.VirtualNowUS > agg.VirtualNowUS {
			agg.VirtualNowUS = p.VirtualNowUS
		}
	}
	agg.SLO.AttainRate = (&metrics.Tally{Attained: agg.SLO.Attained, Missed: agg.SLO.Missed}).AttainRate()
	return agg
}

// mergeModelRows folds one part's model rows into an aggregate keyed by
// model name, re-weighting the derived means by the counts that produced
// them.
func mergeModelRows(agg, rows []ModelStatus) []ModelStatus {
	if len(rows) == 0 {
		return agg
	}
	byName := map[string]int{}
	for i := range agg {
		byName[agg[i].Model] = i
	}
	for _, r := range rows {
		i, ok := byName[r.Model]
		if !ok {
			byName[r.Model] = len(agg)
			agg = append(agg, r)
			continue
		}
		m := &agg[i]
		m.MeanMakespanUS = weightedMean(m.MeanMakespanUS, m.GraphsCompleted, r.MeanMakespanUS, r.GraphsCompleted)
		m.GraphsStarted += r.GraphsStarted
		m.GraphsCompleted += r.GraphsCompleted
		m.GraphsCanceled += r.GraphsCanceled
		m.StagesCompleted += r.StagesCompleted
		m.StagesCanceled += r.StagesCanceled
		m.StagesParked += r.StagesParked
		m.SLOAttained += r.SLOAttained
		m.SLOMissed += r.SLOMissed
		m.AttainRate = (&metrics.Tally{Attained: m.SLOAttained, Missed: m.SLOMissed}).AttainRate()
	}
	sort.Slice(agg, func(i, j int) bool { return agg[i].Model < agg[j].Model })
	return agg
}

// Merge folds another part's view of the same client into m: counters
// sum, the turnaround and waiting means re-weight by completions and the
// SLO margin by deadline-bearing completions, first-seen is the earliest
// and last-finish the latest, and the Figure 5 host state is re-derived
// from the merged accounting. ID and Devices stay m's own; callers attach
// their per-part breakdown (shard indices / node IDs).
func (m *SessionSnapshot) Merge(o SessionSnapshot) {
	m.MeanTurnUS = weightedMean(m.MeanTurnUS, m.Completed, o.MeanTurnUS, o.Completed)
	m.MeanWaitUS = weightedMean(m.MeanWaitUS, m.Completed, o.MeanWaitUS, o.Completed)
	m.MeanSLOMarginUS = weightedMean(m.MeanSLOMarginUS, m.SLOAttained+m.SLOMissed,
		o.MeanSLOMarginUS, o.SLOAttained+o.SLOMissed)
	into, from := m.slots(), o.slots()
	for f := outEnqueued; f < numOutcomes; f++ {
		*into[f] += *from[f]
	}
	m.InFlight += o.InFlight
	m.SLOAttained += o.SLOAttained
	m.SLOMissed += o.SLOMissed
	m.Preemptions += o.Preemptions
	if o.FirstSeenUnix < m.FirstSeenUnix {
		m.FirstSeenUnix = o.FirstSeenUnix
	}
	if o.LastFinishUS > m.LastFinishUS {
		m.LastFinishUS = o.LastFinishUS
	}
	m.HostState = hostStateFor(m.InFlight)
}

// MergeSessions merges the parts' per-client snapshots by ID, sorted by
// ID. from[i] lists, in ascending order, the indices of the parts that
// held a session for merged[i], so each tier can name them its own way.
func MergeSessions(parts [][]SessionSnapshot) (merged []SessionSnapshot, from [][]int) {
	type entry struct {
		snap SessionSnapshot
		from []int
	}
	byID := map[string]*entry{}
	var ids []string
	for p, snaps := range parts {
		for _, snap := range snaps {
			e := byID[snap.ID]
			if e == nil {
				byID[snap.ID] = &entry{snap, []int{p}}
				ids = append(ids, snap.ID)
				continue
			}
			e.snap.Merge(snap)
			e.from = append(e.from, p)
		}
	}
	sort.Strings(ids)
	merged, from = make([]SessionSnapshot, 0, len(ids)), make([][]int, 0, len(ids))
	for _, id := range ids {
		merged, from = append(merged, byID[id].snap), append(from, byID[id].from)
	}
	return merged, from
}
