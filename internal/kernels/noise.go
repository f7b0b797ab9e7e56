package kernels

import "math/rand"

// Seeding a math/rand source runs 1,841 Park–Miller steps to fill 607
// words, of which a noise draw reads two; seededSource computes just those.
//
// rngSource.Seed(s) reduces s to x₀ in [1, 2³¹−1) and sets word i to
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i], where
// xₙ = 48271ⁿ·x₀ mod (2³¹−1). Draw k (1 ≤ k ≤ 273) returns word 334−k plus
// word 607−k, neither yet overwritten. Go 1 keeps seeded math/rand streams
// stable, and TestSeededDrawsMatchMathRand holds this file to them.

const (
	parkMillerMod = 1<<31 - 1
	// jumpDraws is how many draws after Seed are computed directly;
	// NormFloat64 needs more than one in under 1 % of calls.
	jumpDraws = 8
)

// pow48271[n] is 48271ⁿ mod (2³¹−1), far enough for word 606.
var pow48271 [23 + 3*606 + 1]uint64

func init() {
	pow48271[0] = 1
	for n := 1; n < len(pow48271); n++ {
		pow48271[n] = pow48271[n-1] * 48271 % parkMillerMod
	}
}

// feedCooked[k] and tapCooked[k] are the rngCooked words draw k+1 adds,
// copied from Go's math/rand/rng.go (Copyright 2009 The Go Authors;
// BSD-style license).
var (
	feedCooked = [jumpDraws]int64{ // rngCooked[333] down to rngCooked[326]
		-4633371852008891965, 4287360518296753003, -1072987336855386047, 220828013409515943,
		-7602572252857820065, -4799698790548231394, 3648778920718647903, 581945337509520675,
	}
	tapCooked = [jumpDraws]int64{ // rngCooked[606] down to rngCooked[599]
		4152330101494654406, 9103922860780351547, 8382142935188824023, -2171292963361310674,
		-6278469401177312761, -307900319840287220, -1894351639983151068, -758328221503023383,
	}
)

// seededSource is a rand.Source64 whose stream after Seed(s) is that of
// rand.NewSource(s). A draw past jumpDraws seeds a math/rand source, skips
// the draws already made and continues from there.
type seededSource struct {
	x0   int64         // the seed, reduced as rngSource.Seed reduces it
	n    int           // draws since Seed
	rest rand.Source64 // math/rand's own, for the draws past jumpDraws
}

func (s *seededSource) Seed(seed int64) {
	seed %= parkMillerMod
	if seed < 0 {
		seed += parkMillerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n = seed, 0
}

func (s *seededSource) Uint64() uint64 {
	k := s.n
	s.n++
	if k < jumpDraws {
		return uint64(s.word(333-k, feedCooked[k]) + s.word(606-k, tapCooked[k]))
	}
	if k == jumpDraws {
		s.rest = rand.NewSource(s.x0).(rand.Source64)
		for range jumpDraws {
			s.rest.Uint64()
		}
	}
	return s.rest.Uint64()
}

func (s *seededSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// word returns state word i as Seed leaves it, given rngCooked[i].
func (s *seededSource) word(i int, cooked int64) int64 {
	x := func(n int) int64 { return int64(pow48271[n] * uint64(s.x0) % parkMillerMod) }
	return x(21+3*i)<<40 ^ x(22+3*i)<<20 ^ x(23+3*i) ^ cooked
}
