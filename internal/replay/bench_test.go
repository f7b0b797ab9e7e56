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
