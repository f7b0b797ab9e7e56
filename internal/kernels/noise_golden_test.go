package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// noiseSeeds are the seeds the offline phase (model training 0–99,
// overhead profiling 1000–1049) and Figure 7 (5000–5039) draw noise at.
var noiseSeeds = [][2]int64{{0, 99}, {1000, 1049}, {5000, 5039}}

// noiseGolden is one sha256 per benchmark over the bits of NoiseAt at
// every seed in noiseSeeds, in order.
var noiseGolden = map[string]string{
	"CFD":  "f1db750ef01a2dc1762499bccc84bcd467b3c505ed336a29dfb72140ba35f083",
	"NN":   "eabdd6db093cd1d7c6d121748c049ffc09d318efb86aa23f357b91270860a1ef",
	"PF":   "00e69a0b3013e5cfb5d408ae5f5ef36a915d493e6e3b8dfcd04f09fb6b098fc5",
	"PL":   "4a1a29e70c6475d3a24cebcc1232994d232995cf9f5bd78168a686d50d454785",
	"MD":   "1f468a68830d4806e95f3c8fc15c7825ab76924afc714cc911b4445d34f4f044",
	"SPMV": "96d1f23d85d1480794aee95fc624acc6fd54fa010083b8b41c0e52ce94343772",
	"MM":   "6bc3236b720511cde44563e530404b782c584947901cee7e0e33e371e0048bac",
	"VA":   "c020a0e142baee2fc23b9c0ed3af53cd1d772726cc075a075d92a3a27421957a",
}

// TestNoiseAtGolden pins the irregularity noise bit for bit: every duration
// model, tuned overhead and Figure 7 error is a function of it.
func TestNoiseAtGolden(t *testing.T) {
	for _, b := range All() {
		h := sha256.New()
		var buf [8]byte
		for _, r := range noiseSeeds {
			for seed := r[0]; seed <= r[1]; seed++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b.NoiseAt(seed)))
				h.Write(buf[:])
			}
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), noiseGolden[b.Name]; got != want {
			t.Errorf("%s: noise digest %s, want %s", b.Name, got, want)
		}
	}
}
