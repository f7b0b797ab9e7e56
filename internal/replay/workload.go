package replay

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"flep/internal/kernels"
)

// MixTenant describes one tenant of a synthesized multi-tenant trace: a
// client submitting Count launches of Bench/Class at Priority, one every
// Period with seeded jitter. A positive Deadline makes every launch
// latency-critical with that SLO budget from admission.
type MixTenant struct {
	Client   string
	Bench    string
	Class    string
	Priority int
	Weight   float64
	Period   time.Duration
	Count    int
	Deadline time.Duration
}

// SynthesizeMix builds a deterministic open-loop trace from tenant specs:
// the canonical way to produce a what-if input without a live daemon
// (flepreplay record uses it for its two-tenant demo mix). Arrival
// jitter is drawn from the seed, so the same specs and seed always yield
// the identical trace.
func SynthesizeMix(tenants []MixTenant, seed int64) (*Trace, error) {
	t := &Trace{Header: Header{
		Magic: true, TraceVersion: Version, Source: SourceScenario,
		Seed: seed,
	}}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	for i, ten := range tenants {
		if _, err := kernels.ByName(ten.Bench); err != nil {
			return nil, fmt.Errorf("replay: mix tenant %d: %w", i, err)
		}
		if _, err := kernels.ParseClass(ten.Class); err != nil {
			return nil, fmt.Errorf("replay: mix tenant %d: %w", i, err)
		}
		if ten.Count <= 0 || ten.Period <= 0 {
			return nil, fmt.Errorf("replay: mix tenant %d: need positive count and period", i)
		}
		if !seen[ten.Bench] {
			seen[ten.Bench] = true
			t.Header.Benchmarks = append(t.Header.Benchmarks, ten.Bench)
		}
		sloClass := ""
		if ten.Deadline > 0 {
			sloClass = "latency"
		}
		for k := 0; k < ten.Count; k++ {
			jitter := time.Duration(rng.Int63n(int64(ten.Period)/4 + 1))
			t.Records = append(t.Records, Record{
				At:         int64(time.Duration(k)*ten.Period + jitter),
				Device:     -1,
				Client:     ten.Client,
				Bench:      ten.Bench,
				Class:      ten.Class,
				Priority:   ten.Priority,
				Weight:     ten.Weight,
				DeadlineNS: int64(ten.Deadline),
				SLOClass:   sloClass,
			})
		}
	}
	sort.SliceStable(t.Records, func(i, j int) bool { return t.Records[i].At < t.Records[j].At })
	for i := range t.Records {
		t.Records[i].Seq = int64(i + 1)
	}
	sort.Strings(t.Header.Benchmarks)
	return t, nil
}

// WriteFile persists the trace as a single JSONL segment at path.
func (t *Trace) WriteFile(path string) error {
	rec, err := NewRecorder(path, t.Header, RecorderOptions{})
	if err != nil {
		return err
	}
	// The recorder reassigns Seq in append order; records are already in
	// Seq order here, so the assignment is identity-preserving.
	for _, r := range t.Records {
		rec.Record(r)
	}
	return rec.Close()
}
