package metrics

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refShareAccumulator is the map-based share sampler ShareAccumulator
// replaced, kept as the differential oracle: it adds to a string-keyed busy
// map on every observation and starts a fresh one per window, so a kernel
// that was current for 0 ns of a window still has its key.
type refShareAccumulator struct {
	window  time.Duration
	last    time.Duration
	current string
	busy    map[string]time.Duration
	samples []ShareSample
	start   time.Duration
}

func newRefShareAccumulator(window time.Duration) *refShareAccumulator {
	return &refShareAccumulator{window: window, busy: map[string]time.Duration{}}
}

func (s *refShareAccumulator) Observe(at time.Duration, name string) {
	if at < s.last {
		panic(fmt.Sprintf("metrics: time went backwards: %v < %v", at, s.last))
	}
	s.flushWindows(at)
	if s.current != "" {
		s.busy[s.current] += at - s.last
	}
	s.last = at
	s.current = name
}

func (s *refShareAccumulator) flushWindows(at time.Duration) {
	for at-s.start >= s.window {
		edge := s.start + s.window
		if s.current != "" && edge > s.last {
			s.busy[s.current] += edge - s.last
			s.last = edge
		}
		share := map[string]float64{}
		for k, v := range s.busy {
			share[k] = v.Seconds() / s.window.Seconds()
		}
		s.samples = append(s.samples, ShareSample{At: edge, Share: share})
		s.busy = map[string]time.Duration{}
		s.start = edge
		if s.last < edge {
			s.last = edge
		}
	}
}

func (s *refShareAccumulator) Samples(until time.Duration) []ShareSample {
	s.Observe(until, s.current)
	return s.samples
}

// shareOp is one call of a random observation stream: Observe(at, name),
// or Samples(at) when samples is set.
type shareOp struct {
	at      time.Duration
	name    string
	samples bool
}

// shareStream draws a seeded observation stream over a 100 µs window that
// mixes same-instant switches, zero-length residencies, idle gaps, jumps
// across several windows and steps landing exactly on a window edge, and
// ends in a Samples call at an edge or mid-window.
func shareStream(rng *rand.Rand, window time.Duration) []shareOp {
	names := []string{"", "a", "b", "c"}
	var ops []shareOp
	now := time.Duration(0)
	for n := 5 + rng.Intn(60); len(ops) < n; {
		switch r := rng.Intn(10); {
		case r < 2: // same instant: a switch, or a zero-length residency
		case r < 3: // the next window edge exactly
			now += window - now%window
		case r < 4: // across several windows
			now += time.Duration(1+rng.Intn(4))*window + time.Duration(rng.Intn(int(window)))
		default:
			now += time.Duration(1 + rng.Intn(int(window/2)))
		}
		name := names[rng.Intn(len(names))]
		if rng.Intn(5) == 0 {
			name = "" // an idle gap
		}
		ops = append(ops, shareOp{at: now, name: name})
	}
	end := now + time.Duration(rng.Intn(3))*window
	if rng.Intn(2) == 0 {
		end += window - end%window // at a window edge
	} else {
		end += time.Duration(rng.Intn(int(window))) // mid-window, or on an edge by chance
	}
	return append(ops, shareOp{at: end, samples: true})
}

// sampler is what the differential test drives: ShareAccumulator or its
// map-based reference.
type sampler interface {
	Observe(at time.Duration, name string)
	Samples(until time.Duration) []ShareSample
}

func runShareStream(s sampler, ops []shareOp) []ShareSample {
	for _, op := range ops {
		if op.samples {
			return s.Samples(op.at)
		}
		s.Observe(op.at, op.name)
	}
	return nil
}

// sameSamples reports how got differs from want, "" when every sample has
// the same edge, the same key set and the same float bits per key.
func sameSamples(got, want []ShareSample) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d samples, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.At != w.At || (g.Share == nil) != (w.Share == nil) {
			return fmt.Sprintf("sample %d at %v (nil map %v), want at %v (nil map %v)", i, g.At, g.Share == nil, w.At, w.Share == nil)
		}
		if gk, wk := slices.Sorted(maps.Keys(g.Share)), slices.Sorted(maps.Keys(w.Share)); !slices.Equal(gk, wk) {
			return fmt.Sprintf("sample %d at %v has keys %q, want %q", i, w.At, gk, wk)
		}
		for k, v := range w.Share {
			if math.Float64bits(g.Share[k]) != math.Float64bits(v) {
				return fmt.Sprintf("sample %d at %v: %s share %v, want %v", i, w.At, k, g.Share[k], v)
			}
		}
	}
	return ""
}

// TestShareAccumulatorMatchesMapReference holds ShareAccumulator to the
// map-based sampler it replaced on seeded random streams: the same
// samples, the same keys (a kernel current for 0 ns of a window keeps its
// key) and the same float bits.
func TestShareAccumulatorMatchesMapReference(t *testing.T) {
	window := us(100)
	zeroKeys := 0
	for seed := int64(1); seed <= 2000; seed++ {
		ops := shareStream(rand.New(rand.NewSource(seed)), window)
		want := runShareStream(newRefShareAccumulator(window), ops)
		got := runShareStream(NewShareAccumulator(window), ops)
		if diff := sameSamples(got, want); diff != "" {
			t.Fatalf("seed %d: %s\nstream %v", seed, diff, ops)
		}
		for _, smp := range want {
			for _, v := range smp.Share {
				if v == 0 {
					zeroKeys++
				}
			}
		}
	}
	// A sampler that dropped them would fail the key-set comparison above.
	if zeroKeys == 0 {
		t.Fatal("no stream produced a 0 ns key: the streams do not cover it")
	}
}

// BenchmarkShareAccumulator feeds one sampler an FFS-like rotation: two
// kernels alternate, each resident ~190 µs after a 6 µs launch gap, under
// the 10 ms window Figure 13 samples at. One op is one observation.
func BenchmarkShareAccumulator(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(time.Duration) sampler
	}{
		{"slots", func(w time.Duration) sampler { return NewShareAccumulator(w) }},
		{"map-reference", func(w time.Duration) sampler { return newRefShareAccumulator(w) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			s := bc.new(10 * time.Millisecond)
			names := [4]string{"MM", "", "SPMV", ""}
			now := time.Duration(0)
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					now += 6 * time.Microsecond
				} else {
					now += 190 * time.Microsecond
				}
				s.Observe(now, names[i%4])
			}
			s.Samples(now)
		})
	}
}
