package server

import (
	"slices"
	"sort"
	"strconv"

	"flep/internal/kernels"
)

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
	// Load is the candidate's accepted launches that are not yet
	// terminal, whether still queued or admitted.
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

// PinKey is the serving tier's one pin rule, which the fleet and the
// gateway both follow: the key whose ring walk places the launch, or
// ok=false for a launch placed in Placement order. A named client pins by
// its name, so a tenant's kernels contend and preempt on one part like the
// paper's co-run scenarios. An anonymous graph-bearing launch pins by
// (client, graph): a graph's stages have to meet in one part's
// pending-dependency table, and different graphs spread. Anything else
// has no state to find again and goes wherever capacity is.
func PinKey(client string, req LaunchRequest) (key string, ok bool) {
	switch {
	case client != "" && client != anonymous:
		return client, true
	case req.Graph != "":
		return client + "\x00" + req.Graph, true
	}
	return "", false
}

// vnodesPerPart is the ring's virtual-node fan-out. 64 points per part
// keeps each part's keyspace share within a few percent of fair for small
// tiers while the ring stays tiny (16 parts are 1024 points — one binary
// search over a contiguous slice per route).
const vnodesPerPart = 64

// Ring is a consistent-hash ring over a tier's parts (a fleet's shards, a
// cluster's nodes), which it knows by index. It is immutable: membership
// changes (drain, removal) are an eligibility filter the caller applies
// to the walk, not a rebuild, so a drained part's keys — and only that
// part's keys — fall through to their next preference while every other
// key's home is untouched.
type Ring struct {
	points []ringPoint // sorted by hash
	ids    []string
}

type ringPoint struct {
	hash uint64
	part int
}

// NewRing builds the ring over the parts' IDs (any stable, distinct
// strings; the gateway hashes node addresses). Part i is ids[i].
func NewRing(ids []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(ids)*vnodesPerPart), ids: ids}
	for i, id := range ids {
		for rep := 0; rep < vnodesPerPart; rep++ {
			r.points = append(r.points, ringPoint{hash64(id + "#" + strconv.Itoa(rep)), i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Hash ties (vanishingly rare) break by ID so the walk order does
		// not depend on the order the parts were listed in.
		return ids[p.part] < ids[q.part]
	})
	return r
}

// start is the index of the first point clockwise from key's hash.
func (r *Ring) start(key string) int {
	h := hash64(key)
	return sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h }) % len(r.points)
}

// Home is the first part of key's walk.
func (r *Ring) Home(key string) int { return r.points[r.start(key)].part }

// Walk returns every part exactly once, in key's preference order:
// clockwise from key's hash. The first is key's home; the rest are where
// it goes when earlier parts are ineligible.
func (r *Ring) Walk(key string) []int {
	out, start := make([]int, 0, len(r.ids)), r.start(key)
	for i := start; len(out) < len(r.ids); i++ {
		if p := r.points[i%len(r.points)].part; !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// hash64 is FNV-1a with the splitmix64 finalizer. FNV-1a of short,
// similar keys ("addr#3" vs "addr#4") differs mostly in low bits, which
// would sort each part's vnodes into one contiguous arc — the opposite of
// what a consistent-hash ring needs. The finalizer spreads every input bit
// across the word so vnodes interleave.
func hash64(s string) uint64 {
	x := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
