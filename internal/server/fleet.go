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
	"flep/internal/kernels"
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
	// Affinity pins each client to the shard chosen for its first launch,
	// so a tenant's kernels contend (and preempt) on one device like the
	// paper's co-run scenarios. Off, every launch is placed independently
	// by memory-aware least-loaded scoring.
	Affinity bool
}

// Fleet fronts N device shards with a placement router and aggregated
// telemetry. It is the serving-stack shape of a multi-GPU FLEP node: the
// paper's runtime engine (§5) owns one GPU; the fleet replicates that
// engine per device and adds the layer the paper leaves to the cluster —
// deciding which device each intercepted launch lands on.
type Fleet struct {
	cfg       FleetConfig
	shards    []*Server
	startReal time.Time

	// mu guards the affinity table. Placement decisions run under it too,
	// so two concurrent first-launches of one client cannot pin the client
	// to different shards.
	mu       sync.Mutex
	affinity map[string]int
	// trying holds the clients whose pin no accepted launch has confirmed
	// yet, with how many of their launches a shard is still deciding on.
	trying map[string]int

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
// Clone of the system, so the shards' prediction caches never race.
func NewFleetWithSystem(sys *core.System, cfg FleetConfig) (*Fleet, error) {
	cfg.Config.applyDefaults()
	if cfg.Devices <= 0 {
		cfg.Devices = 1
	}
	f := &Fleet{
		cfg:       cfg,
		affinity:  map[string]int{},
		trying:    map[string]int{},
		startReal: time.Now(),
	}
	for i := 0; i < cfg.Devices; i++ {
		shardCfg := cfg.Config
		shardCfg.Device = i
		shardCfg.FleetShards = cfg.Devices
		s, err := NewWithSystem(sys.Clone(), shardCfg)
		if err != nil {
			for _, prev := range f.shards {
				_ = prev.Shutdown(context.Background())
			}
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, s)
	}
	cfg.Logf("fleet: %d device shard(s), affinity=%v", cfg.Devices, cfg.Affinity)
	return f, nil
}

// Devices returns the shard count.
func (f *Fleet) Devices() int { return len(f.shards) }

// Shard returns the i-th device shard (tests and embedders).
func (f *Fleet) Shard(i int) *Server { return f.shards[i] }

// WorkingSet computes a launch's resident footprint for placement — the
// figure the serving shard's admission will reserve — or 0 when the
// request is not placeable by memory (a benchmark the daemon's
// /v1/benchmarks catalog does not list, or an unknown class; the serving
// shard's own validation rejects it).
func WorkingSet(catalog []BenchmarkInfo, req LaunchRequest) int64 {
	for _, bi := range catalog {
		if bi.Name != req.Benchmark {
			continue
		}
		b, err := kernels.ByName(bi.Name)
		if err != nil {
			return 0
		}
		class, err := kernels.ParseClass(req.Class)
		if err != nil {
			return 0
		}
		return b.LaunchInput(class, req.TasksOverride).WorkingSet()
	}
	return 0
}

// Placement scores one candidate (a fleet's shard, a cluster's node) for
// one launch.
type Placement struct {
	// Fits reports that the candidate's free device memory covers the
	// launch's working set.
	Fits bool
	// Load is the candidate's queue depth plus admitted-but-unfinished
	// launches.
	Load int64
	// Rot is the candidate's distance from the rotating start index.
	Rot int
}

// Before is the serving tier's one placement order: candidates that fit
// the working set first, then the least loaded; a launch no candidate
// fits goes to the least loaded overall, where the runtime's own memory
// admission queues it until space frees up. Load is only visible once a
// launch is enqueued, so a burst of concurrent placements all read equal
// (stale) loads; ties break toward the rotating start so the burst still
// spreads round-robin instead of herding onto candidate 0.
func (p Placement) Before(q Placement) bool {
	if p.Fits != q.Fits {
		return p.Fits
	}
	if p.Load != q.Load {
		return p.Load < q.Load
	}
	return p.Rot < q.Rot
}

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

// route places one launch, honoring session affinity when enabled.
// Graph-bearing requests always pin through the affinity table, even
// when affinity is off: the pending-dependency state of a client's
// graphs lives on one shard, so every stage of every graph the client
// submits must land there or prerequisites would never be observed.
// tentative reports that the launch went through a pin no accepted launch
// has confirmed yet; the caller owes settle the shard's verdict.
func (f *Fleet) route(req LaunchRequest, client string) (s *Server, tentative bool) {
	if len(f.shards) == 1 {
		return f.shards[0], false
	}
	if !f.cfg.Affinity && req.Graph == "" {
		return f.shards[f.pickShard(req)], false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.affinity[client]
	if !ok {
		i = f.pickShard(req)
		f.affinity[client], f.trying[client] = i, 0
	}
	n, tentative := f.trying[client]
	if tentative {
		f.trying[client] = n + 1
	}
	return f.shards[i], tentative
}

// settle ends one tentative launch. An acceptance makes the pin permanent.
// A refusal (400, 429, 503, 409) that leaves no launch undecided drops it:
// refused requests carry attacker-controlled names, and a pin per garbage
// name is the unbounded state countLocked refuses to keep. Concurrent first
// launches of one client share the pin while any of them is undecided, so
// they still agree on one shard.
func (f *Fleet) settle(client string, accepted bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, tentative := f.trying[client]
	switch {
	case !tentative: // a concurrent launch was accepted first
	case accepted:
		delete(f.trying, client)
	case n > 1:
		f.trying[client] = n - 1
	default:
		delete(f.trying, client)
		delete(f.affinity, client)
	}
}

// AffinityFor reports the shard a client is pinned to (tests). A
// one-shard fleet pins every client to shard 0 without a table entry.
func (f *Fleet) AffinityFor(client string) (int, bool) {
	if len(f.shards) == 1 {
		return 0, true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	i, ok := f.affinity[client]
	return i, ok
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

// Counters sums the shards' request accounting. The fleet-wide
// exactly-once invariant is enqueued == completed + submit_errors at
// rest, same as a single shard: placement never duplicates or drops a
// launch, it only chooses which shard's queue it enters.
func (f *Fleet) Counters() map[string]int64 {
	total := map[string]int64{}
	for _, s := range f.shards {
		for k, v := range s.Counters() {
			total[k] += v
		}
	}
	return total
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
// lists every shard the client's launches touched (exactly one under
// affinity).
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
// stamping each entry with its device index. ok is false when tracing is
// off.
func (f *Fleet) TraceEntries(kind string) (entries []trace.Entry, ok bool) {
	streams := make([][]trace.Entry, 0, len(f.shards))
	for i, s := range f.shards {
		entries, ok := s.TraceEntries(kind)
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
	return trace.Merge(streams), true
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
	s, tentative := f.route(req, client)
	if accepted := s.serveLaunch(w, r, req, client); tentative {
		f.settle(client, accepted)
	}
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
