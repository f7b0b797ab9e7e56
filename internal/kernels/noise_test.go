package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// checkSeededDraws compares the first 12 draws of s after Seed(seed) with
// those of rand.NewSource(seed): the directly computed ones, the jump into
// a seeded source, and draws past it.
func checkSeededDraws(t *testing.T, s *seededSource, seed int64) {
	t.Helper()
	want := rand.NewSource(seed)
	s.Seed(seed)
	for k := 0; k < 12; k++ {
		if got, w := s.Int63(), want.Int63(); got != w {
			t.Fatalf("seed %d: draw %d is %d, math/rand draws %d", seed, k, got, w)
		}
	}
}

// TestSeededDrawsMatchMathRand holds seededSource to math/rand's stream
// at the seeds NoiseAt derives and at the edges of Seed's reduction. One
// source serves every seed, as a pooled one does.
func TestSeededDrawsMatchMathRand(t *testing.T) {
	var s seededSource
	for _, b := range All() {
		for seed := int64(-100); seed < 6000; seed += 7 {
			checkSeededDraws(t, &s, seed*1_000_003+int64(len(b.Name))*7919+int64(b.Name[0]))
		}
	}
	for _, seed := range []int64{
		0, 1, -1, 89482311,
		parkMillerMod, -parkMillerMod, 2 * parkMillerMod, -3 * parkMillerMod,
		parkMillerMod - 1, parkMillerMod + 1, 1 - parkMillerMod,
		math.MaxInt64 / parkMillerMod * parkMillerMod,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	} {
		checkSeededDraws(t, &s, seed)
	}
}

// FuzzSeededDraws searches for a seed whose stream leaves math/rand's.
func FuzzSeededDraws(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, parkMillerMod, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	var s seededSource
	f.Fuzz(func(t *testing.T, seed int64) { checkSeededDraws(t, &s, seed) })
}

// BenchmarkNoiseAt is one noise draw, as the offline phase makes 1,200.
func BenchmarkNoiseAt(b *testing.B) {
	spmv, err := ByName("SPMV")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	seed := int64(0)
	for b.Loop() {
		spmv.NoiseAt(seed)
		seed++
	}
}
