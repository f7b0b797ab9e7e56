// Package trace records device and runtime events from a simulation run
// and exports them as human-readable logs or Gantt rows for inspection
// and debugging.
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"flep/internal/gpu"
)

// Entry is one recorded event.
type Entry struct {
	Time   time.Duration `json:"time_ns"`
	Source string        `json:"source"` // "device" or "runtime"
	Kind   string        `json:"kind"`
	Kernel string        `json:"kernel"`
	SMLo   int           `json:"sm_lo"`
	SMHi   int           `json:"sm_hi"`
	Detail string        `json:"detail,omitempty"`
	// Device is the fleet shard the entry came from; 0 for a standalone
	// runtime. Set by the aggregation layer, not by the recorder.
	Device int `json:"device"`
	// Node is the cluster node the entry came from; empty for a single
	// flepd. Set by the gateway's aggregation layer, never by the recorder,
	// so single-node traces marshal unchanged.
	Node string `json:"node,omitempty"`
}

// Log collects entries in time order (the simulator is single-threaded, so
// appends arrive ordered). A Log has one owner and is not safe for
// concurrent use: a long-running daemon's log is written and read on its
// event loop only.
type Log struct {
	// Limit, when positive, bounds the retained entries: once the log is
	// full, Add overwrites the oldest entry (a daemon would otherwise grow
	// without bound). Set it before the first Add.
	Limit int

	entries []Entry
	head    int // the oldest entry's slot once the log is full
	dropped int
}

// Add appends an entry, evicting the oldest if Limit is exceeded.
func (l *Log) Add(e Entry) {
	if l.Limit <= 0 || len(l.entries) < l.Limit {
		l.entries = append(l.entries, e)
		return
	}
	l.entries[l.head] = e
	l.head = (l.head + 1) % len(l.entries)
	l.dropped++
}

// Dropped returns how many entries eviction has discarded.
func (l *Log) Dropped() int { return l.dropped }

// Runtime records a runtime-engine event.
func (l *Log) Runtime(at time.Duration, kind, kernel, detail string) {
	l.Add(Entry{Time: at, Source: "runtime", Kind: kind, Kernel: kernel, Detail: detail})
}

// DeviceObserver returns a gpu.Device observer feeding this log.
func (l *Log) DeviceObserver() func(gpu.Event) {
	return func(ev gpu.Event) {
		l.Add(Entry{
			Time: ev.Time, Source: "device", Kind: ev.Kind.String(),
			Kernel: ev.Kernel, SMLo: ev.SMLo, SMHi: ev.SMHi,
			Detail: fmt.Sprintf("remaining=%d", ev.Remaining),
		})
	}
}

// Entries returns a copy of the retained entries, oldest first.
func (l *Log) Entries() []Entry {
	out := make([]Entry, 0, len(l.entries))
	out = append(out, l.entries[l.head:]...)
	return append(out, l.entries[:l.head]...)
}

// Len returns the retained entry count.
func (l *Log) Len() int { return len(l.entries) }

// Filter returns the last limit entries matching kind ("" matches all),
// oldest first, or every match when limit is not positive; nil when
// nothing matches. It walks the ring newest-first to find where its answer
// starts and copies only the answer, so a bounded read of a full log costs
// what it returns.
func (l *Log) Filter(kind string, limit int) []Entry {
	n, from := 0, len(l.entries)
	for from > 0 && (limit <= 0 || n < limit) {
		from--
		if kind == "" || l.at(from).Kind == kind {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for i := from; len(out) < n; i++ {
		if e := l.at(i); kind == "" || e.Kind == kind {
			out = append(out, *e)
		}
	}
	return out
}

// at returns the i-th retained entry, oldest first.
func (l *Log) at(i int) *Entry { return &l.entries[(l.head+i)%len(l.entries)] }

// WriteText writes the entry as one line of the human-readable log.
func (e Entry) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, "%12v %-8s %-8s %-8s [%2d,%2d) %s\n",
		e.Time, e.Source, e.Kind, e.Kernel, e.SMLo, e.SMHi, e.Detail)
	return err
}

// WriteText writes a human-readable log.
func (l *Log) WriteText(w io.Writer) error {
	for _, e := range l.Entries() {
		if err := e.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// Merge k-way merges per-source trace streams into one global order.
// Each input stream must already be time-ordered (the simulator appends
// monotonically); the merge is then a deterministic O(n·k) head
// comparison with a total tie-break: equal timestamps order by Node,
// then by Device, and entries within one stream keep their append
// order. The fleet layer merges per-shard streams (Node empty, so the
// tie-break reduces to Device); the cluster gateway merges per-node
// streams that are themselves fleet merges. A plain concat+sort gives
// the same ordering only by accident of the sort's stability; the merge
// makes the contract explicit and holds even if a caller hands it
// streams assembled in a different order.
func Merge(streams [][]Entry) []Entry {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	// Heads walk each stream; pick the smallest (Time, Node, Device) each
	// round.
	idx := make([]int, len(streams))
	out := make([]Entry, 0, total)
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			if entryLess(s[idx[i]], streams[best][idx[best]]) {
				best = i
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// entryLess is Merge's strict ordering: (Time, Node, Device).
func entryLess(a, b Entry) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Device < b.Device
}

// GanttRow is one kernel's residency span on a set of SMs.
type GanttRow struct {
	Kernel     string
	SMLo, SMHi int
	Start, End time.Duration
}

// Gantt reconstructs kernel residency spans from device resident/complete/
// drained events: one row per contiguous residency.
func (l *Log) Gantt() []GanttRow {
	type open struct {
		start      time.Duration
		smLo, smHi int
	}
	active := map[string]*open{}
	var rows []GanttRow
	closeRow := func(k string, at time.Duration) {
		if o, ok := active[k]; ok {
			rows = append(rows, GanttRow{Kernel: k, SMLo: o.smLo, SMHi: o.smHi, Start: o.start, End: at})
			delete(active, k)
		}
	}
	for _, e := range l.Entries() {
		if e.Source != "device" {
			continue
		}
		switch e.Kind {
		case "resident":
			closeRow(e.Kernel, e.Time)
			active[e.Kernel] = &open{start: e.Time, smLo: e.SMLo, smHi: e.SMHi}
		case "complete":
			closeRow(e.Kernel, e.Time)
		case "drained":
			if o, ok := active[e.Kernel]; ok {
				// Spatial drain shrinks the span: close and reopen.
				rows = append(rows, GanttRow{Kernel: e.Kernel, SMLo: o.smLo, SMHi: o.smHi, Start: o.start, End: e.Time})
				if e.SMHi < o.smHi {
					active[e.Kernel] = &open{start: e.Time, smLo: e.SMHi, smHi: o.smHi}
				} else {
					delete(active, e.Kernel)
				}
			}
		}
	}
	// Close any still-open rows at their start (zero-width, visible).
	names := make([]string, 0, len(active))
	for k := range active {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		o := active[k]
		rows = append(rows, GanttRow{Kernel: k, SMLo: o.smLo, SMHi: o.smHi, Start: o.start, End: o.start})
	}
	return rows
}
