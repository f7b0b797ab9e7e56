package perf

import (
	"fmt"
	"path/filepath"
	"time"
)

// SpanDir is where a traced run writes its spans: inside the checkout's
// build directory, which .gitignore names, never beside the sources.
const SpanDir = ".bench_build/flepperf"

// Run runs one workload once. A timed run (traced false) measures the
// end-to-end metrics with no spans anywhere; a traced run wraps every
// layer boundary the harness can reach, reads the counters, runs the
// layer probes, and writes its spans under SpanDir when it ends.
func Run(workload string, seed int64, total time.Duration, traced bool) (*Outcome, error) {
	var out *Outcome
	var rec *Recorder
	var err error
	switch workload {
	case ReplayWhatIf:
		out, err = runReplay(seed, total, traced)
	case PaperSuite:
		out, err = runSuite(seed, total, traced)
	default:
		spec, ok := servingSpecs()[workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", workload)
		}
		out, rec, err = runServing(spec, seed, total, traced)
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		return out, nil
	}
	// The probes get what the traced pass left of the run's budget.
	if rec == nil {
		rec = NewRecorder(256)
	}
	probeValues, err := runProbes(total*6/13, rec)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range probeValues {
		out.Values[k] = v
	}
	path := filepath.Join(SpanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := rec.WriteJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.Notes = append(out.Notes, "spans written to "+path)
	return out, nil
}
