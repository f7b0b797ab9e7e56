package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flep/internal/replay"
)

// The header line a recording daemon writes is what every later replay
// reads its scheduler from, so its bytes are pinned: the zero Config (which
// defaults to hpf and the full suite), a spatial one and a weighted FFS one.
func TestRecorderHeaderBytes(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     Config
		devices int
		want    string
	}{
		{"zero", Config{}, 1,
			`{"flep_trace":true,"version":1,"source":"flepd","policy":"hpf","benchmarks":["CFD","MD","MM","NN","PF","PL","SPMV","VA"],"devices":1}`},
		{"spatial", Config{Policy: "hpf", Spatial: true, SpatialSMs: 4, Benchmarks: []string{"VA", "MM"}}, 2,
			`{"flep_trace":true,"version":1,"source":"flepd","policy":"hpf","spatial":true,"spatial_sms":4,"benchmarks":["MM","VA"],"devices":2}`},
		{"ffs", Config{Policy: "ffs", MaxOverhead: 0.2, Weights: map[int]float64{1: 1, 2: 2.5, 10: 3}, Benchmarks: []string{"SPMV", "MM"}}, 2,
			`{"flep_trace":true,"version":1,"source":"flepd","policy":"ffs","max_overhead":0.2,"weights":{"1":1,"10":3,"2":2.5},"benchmarks":["MM","SPMV"],"devices":2}`},
	} {
		path := filepath.Join(t.TempDir(), "trace.jsonl")
		rec, err := replay.NewRecorder(path, c.cfg.RecorderHeader(c.devices), replay.RecorderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		line, _, _ := bytes.Cut(data, []byte("\n"))
		if string(line) != c.want {
			t.Errorf("%s: header line\n got %s\nwant %s", c.name, line, c.want)
		}
	}
}
