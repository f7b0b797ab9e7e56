// Package replay is FLEP's trace record/replay engine: it captures the
// launch stream a live flepd admits, persists it as a versioned JSONL
// trace, and re-drives it through fresh simulator instances to answer
// what-if questions offline — "what if we had run FFS instead of HPF?",
// "what if the node had four devices?", "what if spa_P were larger?".
//
// The whole device layer is a deterministic discrete-event simulator, so
// unlike a real GPU stack a captured trace can be replayed bit-for-bit:
// the same trace and seed always produce byte-identical summary reports,
// and a trace recorded from flepd replays to exactly the live run's
// per-tenant completion and preemption counts (the recorder stores each
// admission's engine step index, so the replayer reproduces the precise
// arrival/step interleaving the live scheduler saw).
//
// Trace format (version 1): a JSONL file whose first line is a Header
// carrying {"flep_trace":true,"version":1,...} plus the recording
// daemon's configuration, followed by one Record per admitted launch in
// admission order. A truncated final line (crash mid-write) is tolerated
// on load; an unknown version or a non-trace file is rejected with a
// clear error. See DESIGN.md §10 for the full determinism contract.
package replay

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"flep/internal/core"
)

// Version is the trace-format version this package reads and writes.
// Loaders reject any other version: trace semantics (what "at_ns" means,
// which fields drive replay) are frozen per version, and silently
// misreading a future format would poison every downstream report.
const Version = 1

// Trace sources.
const (
	// SourceFlepd marks a server-side capture: At is the shard's virtual
	// admission time and Step the shard's engine step index, so replay can
	// be exact.
	SourceFlepd = "flepd"
	// SourceFlepload marks a client-side capture from the load generator:
	// At is a wall-clock offset since the run began.
	SourceFlepload = "flepload"
	// SourceFlepgw marks a cluster-gateway capture: one record per launch
	// the gateway saw accepted by any node, with At a wall-clock offset
	// since the gateway opened its recorder and Node naming the serving
	// node. No single virtual clock spans the cluster, so gateway traces
	// replay in timed mode (like flepload's).
	SourceFlepgw = "flepgw"
	// SourceScenario marks a scripted trace (a synthesized mix or a
	// hand-built scenario): At is the scripted arrival offset.
	SourceScenario = "scenario"
)

// Header is the first line of a trace file: the recording side's identity
// and configuration, so a replay can default to "as recorded" and a
// what-if run knows what it is deviating from.
type Header struct {
	// Magic distinguishes a FLEP trace from arbitrary JSONL; it is always
	// true in a valid trace.
	Magic bool `json:"flep_trace"`
	// TraceVersion is the format version (see Version).
	TraceVersion int `json:"version"`
	// Source is flepd, flepload, or scenario.
	Source string `json:"source"`
	// CreatedUnixMS timestamps the recording (informational only; it is
	// never consulted by replay, which must be deterministic).
	CreatedUnixMS int64 `json:"created_unix_ms,omitempty"`
	// Options is the recording daemon's scheduler (encoded inline), so
	// replay reproduces it by default.
	core.Options
	// Benchmarks names the kernels loaded at record time (the replayer
	// builds offline artifacts for exactly these).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Devices is the recording fleet's shard count.
	Devices int `json:"devices,omitempty"`
	// Seed is the workload seed for synthetic traces (flepload/scenario).
	Seed int64 `json:"seed,omitempty"`
}

// Record is one admitted kernel launch. The replay-critical fields are
// At/Step/Device (when), Client (who), and Bench/Class/Priority/Weight/
// TasksOverride (what); Grid, Block, WorkingSet, and Te snapshot what the
// live system derived at admission so a replay can detect divergence.
type Record struct {
	// Seq is the global admission sequence number (assigned by the
	// recorder; the deterministic tie-break for equal arrival times).
	Seq int64 `json:"seq"`
	// At is the arrival offset in nanoseconds. For flepd traces this is
	// the shard's virtual clock at admission; for flepload/scenario
	// traces it is the offset on the synthetic timeline.
	At int64 `json:"at_ns"`
	// Step is the shard engine's step count at admission (flepd traces
	// only). Replaying "step exactly Step events, then submit" reproduces
	// the live loop's arrival interleaving precisely, including ties the
	// virtual timestamp alone cannot order.
	Step int64 `json:"step,omitempty"`
	// Wall is the real-time offset since the recorder opened
	// (informational; replay never reads it).
	Wall int64 `json:"wall_ns,omitempty"`
	// Device is the fleet shard that admitted the launch (-1 if unknown).
	Device int `json:"device"`
	// Node is the cluster node that served the launch (flepgw traces
	// only; empty otherwise). Informational for replay — a replayed
	// cluster collapses onto one simulated fleet — but it keeps the
	// record attributable when reconciling a gateway trace against
	// per-node accounting.
	Node string `json:"node,omitempty"`

	Client        string  `json:"client"`
	Bench         string  `json:"bench"`
	Class         string  `json:"class,omitempty"`
	Priority      int     `json:"priority"`
	Weight        float64 `json:"weight,omitempty"`
	TasksOverride int     `json:"tasks_override,omitempty"`

	// Grid and Block are the launch dimensions (CTAs and threads/CTA) the
	// live system resolved; WorkingSet its resident footprint in bytes;
	// Te the live predictor's duration estimate. All informational for
	// replay (the replayer re-derives them) but load-bearing for the
	// divergence check: a replayed Te that disagrees with the recorded
	// one means the offline artifacts differ from the recording system's.
	Grid       int   `json:"grid,omitempty"`
	Block      int   `json:"block,omitempty"`
	WorkingSet int64 `json:"working_set,omitempty"`
	Te         int64 `json:"te_ns,omitempty"`

	// DeadlineNS is the launch's SLO budget in virtual nanoseconds from
	// admission (zero = best-effort) and SLOClass its tier name
	// ("latency"; empty for best-effort). Replay re-applies the budget at
	// submission, so SLO attainment is reproducible and scoreable across
	// what-if configurations. Both are omitted for best-effort launches,
	// keeping pre-SLO traces byte-identical.
	DeadlineNS int64  `json:"deadline_ns,omitempty"`
	SLOClass   string `json:"slo_class,omitempty"`

	// Model-graph coordinates: Model is the (folded) model name the serving
	// daemon accounted this launch under, GraphID the graph instance, Stage
	// this launch's stage name, and After its declared prerequisites. All
	// omitted for plain launches, keeping pre-DAG traces byte-identical.
	// Replay uses them to reproduce per-model aggregation and, in timed
	// mode, to respect stage ordering.
	Model   string   `json:"model,omitempty"`
	GraphID string   `json:"graph_id,omitempty"`
	Stage   string   `json:"stage,omitempty"`
	After   []string `json:"after,omitempty"`
}

// Trace is a loaded trace: header plus records in admission (Seq) order.
type Trace struct {
	Header  Header
	Records []Record
}

// Exact reports whether the trace supports step-exact replay: a flepd
// capture where every record carries its engine step index.
func (t *Trace) Exact() bool {
	if t.Header.Source != SourceFlepd {
		return false
	}
	for _, r := range t.Records {
		if r.Step == 0 && r.At != 0 {
			// A record admitted before the engine ever stepped legitimately
			// has Step 0 but then also At 0.
			return false
		}
	}
	return true
}

// Benchmarks returns the distinct benchmark names in the trace, sorted.
// It prefers the header's list (which names everything the recording
// daemon had loaded) and falls back to the records.
func (t *Trace) Benchmarks() []string {
	if len(t.Header.Benchmarks) > 0 {
		out := append([]string(nil), t.Header.Benchmarks...)
		sort.Strings(out)
		return out
	}
	seen := map[string]bool{}
	for _, r := range t.Records {
		seen[r.Bench] = true
	}
	out := make([]string, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// maxDevices bounds a trace's device count and record device indices,
// and a replay's device count: each device costs the replayer a stack (an
// engine, a device and a runtime), so a count read from a trace must not
// be able to exhaust memory.
const maxDevices = 1024

// parseHeader validates the first line of a trace file.
func parseHeader(line []byte) (Header, error) {
	// Distinguish "not a trace" from "a trace we cannot read": the magic
	// key must be present before the version is even considered.
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(line, &probe); err != nil {
		return Header{}, fmt.Errorf("replay: not a FLEP trace (first line is not JSON: %v)", err)
	}
	if _, ok := probe["flep_trace"]; !ok {
		return Header{}, fmt.Errorf("replay: not a FLEP trace (first line lacks the flep_trace marker)")
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return Header{}, fmt.Errorf("replay: trace line 1: bad header: %v", err)
	}
	if !h.Magic {
		return Header{}, fmt.Errorf("replay: not a FLEP trace (flep_trace marker is false)")
	}
	if h.TraceVersion != Version {
		return Header{}, fmt.Errorf("replay: unsupported trace version %d (this build reads version %d)",
			h.TraceVersion, Version)
	}
	if h.Devices < 0 || h.Devices > maxDevices {
		return Header{}, fmt.Errorf("replay: trace line 1: devices %d outside [0, %d]", h.Devices, maxDevices)
	}
	return h, nil
}

// Read parses one trace segment from r. A truncated final line — the
// tail of a crashed or still-recording daemon's buffer — is tolerated:
// every complete record before it loads, and the partial line is
// dropped. Any other malformed record line is an error (silent skips
// would bias every downstream report).
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r) // ReadBytes collects a line longer than its buffer
	headerLine, err := br.ReadBytes('\n')
	if err == io.EOF && len(bytes.TrimSpace(headerLine)) == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("replay: reading trace header: %w", err)
	}
	h, herr := parseHeader(bytes.TrimSpace(headerLine))
	if herr != nil {
		return nil, herr
	}
	t := &Trace{Header: h}
	for lineNo := 2; ; lineNo++ {
		line, err := br.ReadBytes('\n')
		complete := err == nil
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			var rec Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				if !complete {
					break // truncated tail: keep everything before it
				}
				return nil, fmt.Errorf("replay: trace line %d: %v", lineNo, jerr)
			}
			if rec.Device < -1 || rec.Device >= maxDevices {
				return nil, fmt.Errorf("replay: trace line %d: device %d outside [-1, %d)", lineNo, rec.Device, maxDevices)
			}
			// flepd refuses such a launch, so no recording admits one.
			if rec.Priority < 0 || rec.Weight < 0 || rec.TasksOverride < 0 {
				return nil, fmt.Errorf("replay: trace line %d: priority %d, weight %g and tasks_override %d must be non-negative",
					lineNo, rec.Priority, rec.Weight, rec.TasksOverride)
			}
			t.Records = append(t.Records, rec)
		}
		if err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("replay: reading trace: %w", err)
		}
	}
	return t, nil
}

// sameHeader reports whether two parsed headers encode alike: an empty
// map or list and an absent one are the same header.
func sameHeader(a, b Header) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}

// LoadFile loads a single trace segment from disk.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("replay: %s: %w", path, err)
	}
	return t, nil
}

// Load loads a trace including any rotated segments: `path.1` (oldest)
// through `path.N`, then `path` itself (the segment currently being
// written). Records are concatenated in segment order and re-sorted by
// Seq, so a trace that rotated mid-burst loads as one stream. The recorder
// opens every segment with the one header it was made with, so a segment
// whose header reads differently from the first's belongs to another
// recording and is refused.
func Load(path string) (*Trace, error) {
	var segments []string
	for i := 1; ; i++ {
		seg := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(seg); err != nil {
			break
		}
		segments = append(segments, seg)
	}
	segments = append(segments, path)

	var merged *Trace
	for _, seg := range segments {
		t, err := LoadFile(seg)
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = t
			continue
		}
		if !sameHeader(t.Header, merged.Header) {
			return nil, fmt.Errorf("replay: %s: header differs from %s's (segments of one recording share its header)", seg, segments[0])
		}
		merged.Records = append(merged.Records, t.Records...)
	}
	sort.SliceStable(merged.Records, func(i, j int) bool {
		return merged.Records[i].Seq < merged.Records[j].Seq
	})
	return merged, nil
}
