package replay

import (
	"path/filepath"
	"testing"

	"flep/internal/core"
)

// BenchmarkRecorderRecord measures the per-admission trace append on the
// reused-encoder path (no per-record marshal allocation); the daemon's
// event loop pays this cost inline for every admitted launch when
// -record is on.
func BenchmarkRecorderRecord(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.trace")
	r, err := NewRecorder(path, Header{Source: SourceFlepd, Options: core.Options{Policy: "hpf"}}, RecorderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	rec := Record{
		At: 123456789, Step: 42, Device: 0,
		Client: "bench", Bench: "VA", Class: "trivial",
		Priority: 1, Grid: 1024, Block: 256, WorkingSet: 1 << 20, Te: 987654,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Record(rec) {
			b.Fatal("record dropped")
		}
	}
}

// BenchmarkReplayWhatIfRound replays the what-if mix once in each of the
// eight cells flepperf's replay_whatif workload times (hpf, ffs, edf and
// fifo on one and two devices) on one Replayer, so an op is one round of
// 8,160 replayed records.
func BenchmarkReplayWhatIfRound(b *testing.B) {
	tr, err := SynthesizeMix(whatIfMix(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []ReplayConfig
	for _, p := range []string{"hpf", "ffs", "edf", "fifo"} {
		for _, d := range []int{1, 2} {
			cfgs = append(cfgs, ReplayConfig{Policy: p, Devices: d, Seed: 1})
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, cfg := range cfgs {
			if _, err := rp.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
