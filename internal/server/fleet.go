package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flep/internal/core"
	"flep/internal/obs"
	"flep/internal/trace"
)

// FleetConfig parameterizes a sharded daemon: N independent device shards
// behind one front door.
type FleetConfig struct {
	Config
	// Devices is the number of device shards (default 1). Each shard owns
	// its own core.System, simulated device, and event-loop goroutine, so
	// shards simulate concurrently on separate cores.
	Devices int
}

// Fleet fronts N device shards with a placement router and aggregated
// telemetry. It is the serving-stack shape of a multi-GPU FLEP node: the
// paper's runtime engine (§5) owns one GPU; the fleet replicates that
// engine per device and adds the layer the paper leaves to the cluster —
// deciding which device each intercepted launch lands on.
type Fleet struct {
	shards    []*Server
	ring      *Ring // over the shard indices, for pinned launches
	startReal time.Time

	// rr rotates the tie-break start of pickShard. Load is only visible
	// once a launch is enqueued, so a burst of concurrent placements all
	// read equal (stale) loads; a fixed lowest-index tie-break would herd
	// the whole burst onto shard 0.
	rr atomic.Int64
}

// NewFleet builds the offline artifacts once, clones the system per shard,
// and starts one event loop per device.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	sys, err := offlineSystem(&cfg.Config)
	if err != nil {
		return nil, err
	}
	return NewFleetWithSystem(sys, cfg)
}

// NewFleetWithSystem starts a fleet over an existing system (whose Offline
// phase must already cover cfg.Benchmarks). Each shard receives its own
// Clone of the system, so a shard's SoloTime storing the solo baseline of
// a benchmark the offline phase did not process never races another's.
func NewFleetWithSystem(sys *core.System, cfg FleetConfig) (*Fleet, error) {
	cfg.Config.applyDefaults()
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	f := &Fleet{startReal: time.Now()}
	ids := make([]string, cfg.Devices)
	for i := range ids {
		ids[i] = strconv.Itoa(i)
		s, err := newShard(sys.Clone(), cfg.Config, i, cfg.Devices)
		if err != nil {
			for _, prev := range f.shards {
				_ = prev.Shutdown(context.Background())
			}
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, s)
	}
	f.ring = NewRing(ids)
	cfg.Logf("fleet: %d device shard(s)", cfg.Devices)
	return f, nil
}

// Devices returns the shard count.
func (f *Fleet) Devices() int { return len(f.shards) }

// Shard returns the i-th device shard (tests and embedders).
func (f *Fleet) Shard(i int) *Server { return f.shards[i] }

// pickShard returns the shard that comes first in placement order.
func (f *Fleet) pickShard(req LaunchRequest) int {
	need := WorkingSet(f.shards[0].info, req)
	n := len(f.shards)
	start := int(f.rr.Add(1)-1) % n
	best, bestScore := -1, Placement{}
	for k := 0; k < n; k++ {
		i := (start + k) % n
		s := f.shards[i]
		score := Placement{Fits: need <= 0 || s.MemoryAvailable() >= need, Load: s.Load(), Rot: k}
		if best < 0 || score.Before(bestScore) {
			best, bestScore = i, score
		}
	}
	return best
}

// route places one launch: a pinned one (PinKey) on its ring home among
// the shards, as the gateway places it among nodes, and any other on the
// shard first in placement order. Routing keeps no state, so it takes no
// lock.
func (f *Fleet) route(req LaunchRequest, client string) *Server {
	if len(f.shards) == 1 {
		return f.shards[0]
	}
	if key, ok := PinKey(client, req); ok {
		return f.shards[f.ring.Home(key)]
	}
	return f.shards[f.pickShard(req)]
}

// Shutdown drains every shard concurrently and returns the first error.
func (f *Fleet) Shutdown(ctx context.Context) error {
	errs := make([]error, len(f.shards))
	var wg sync.WaitGroup
	for i, s := range f.shards {
		wg.Add(1)
		go func(i int, s *Server) {
			defer wg.Done()
			errs[i] = s.Shutdown(ctx)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Pause parks every shard's event loop.
func (f *Fleet) Pause() error {
	for _, s := range f.shards {
		if err := s.Pause(); err != nil {
			return err
		}
	}
	return nil
}

// Resume unparks every shard's event loop.
func (f *Fleet) Resume() error {
	for _, s := range f.shards {
		if err := s.Resume(); err != nil {
			return err
		}
	}
	return nil
}

// Status aggregates the shards: MergeStatus of their snapshots at the top
// level (so single-device clients keep working unchanged), per-shard
// breakdowns under Devices.
func (f *Fleet) Status() Status {
	devs := make([]Status, len(f.shards))
	for i, s := range f.shards {
		devs[i] = s.Status()
	}
	agg := MergeStatus(devs)
	agg.UptimeMS = time.Since(f.startReal).Milliseconds()
	if len(devs) > 1 {
		agg.Devices = devs
	}
	return agg
}

// SessionSnapshots merges the shards' per-client sessions by ID; Devices
// lists every shard the client's launches touched (exactly one for a named
// client, which is pinned).
func (f *Fleet) SessionSnapshots() []SessionSnapshot {
	parts := make([][]SessionSnapshot, len(f.shards))
	for i, s := range f.shards {
		parts[i] = s.SessionSnapshots()
	}
	merged, from := MergeSessions(parts)
	for i := range merged {
		merged[i].Devices = from[i]
	}
	return merged
}

// TraceEntries merges the shards' trace logs into one time-ordered stream,
// stamping each entry with its device index, and returns its last limit
// entries (all of them when limit is not positive). ok is false when
// tracing is off. Merging keeps each shard's order, so the merged stream's
// last limit entries are among the shards' own last limit: each shard
// copies only those.
func (f *Fleet) TraceEntries(kind string, limit int) (entries []trace.Entry, ok bool) {
	streams := make([][]trace.Entry, 0, len(f.shards))
	for i, s := range f.shards {
		entries, ok := s.TraceEntries(kind, limit)
		if !ok {
			return nil, false
		}
		for j := range entries {
			entries[j].Device = i
		}
		streams = append(streams, entries)
	}
	// trace.Merge orders by (Time, Node, Device); shard streams carry no
	// Node, so the tie-break reduces to the documented (Time, Device).
	merged := trace.Merge(streams)
	if limit > 0 && limit < len(merged) {
		merged = merged[len(merged)-limit:]
	}
	return merged, true
}

// Handler returns the fleet's HTTP API: the same surface as a single
// Server, with launches routed by placement and reads aggregated across
// shards.
func (f *Fleet) Handler() http.Handler { return newHandler(f) }

func (f *Fleet) handleLaunch(w http.ResponseWriter, r *http.Request) {
	req, client, err := decodeLaunch(w, r)
	if err != nil {
		// A body that never parsed has no placement signal; account the
		// reject on shard 0 so fleet sums still cover every outcome.
		f.shards[0].refuse(w, outRejectedInvalid, "", fmt.Errorf("bad request body: %w", err))
		return
	}
	f.route(req, client).serveLaunch(w, r, req, client)
}

func (f *Fleet) catalog() []BenchmarkInfo { return f.shards[0].info }

// Draining reports whether any shard has begun draining.
func (f *Fleet) Draining() bool {
	for _, s := range f.shards {
		if s.Draining() {
			return true
		}
	}
	return false
}

// writeMetrics renders every shard's registry into one exposition, each
// sample labeled with its device index and each family's samples together
// under one header (obs.Exposition).
func (f *Fleet) writeMetrics(w io.Writer) error {
	var expo obs.Exposition
	var buf bytes.Buffer
	for i, s := range f.shards {
		buf.Reset()
		if err := s.writeMetrics(&buf); err != nil {
			return err
		}
		if err := expo.Add(&buf, "device", strconv.Itoa(i)); err != nil {
			return err
		}
	}
	return expo.Write(w)
}
