package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"flep/internal/replay"
)

// homedClients names one client per shard, each homed on its index.
func homedClients(t *testing.T, f *Fleet) []string {
	t.Helper()
	names := make([]string, f.Devices())
	found := 0
	for i := 0; found < len(names) && i < 1000; i++ {
		c := fmt.Sprintf("c%d", i)
		if h := f.ring.Home(c); names[h] == "" {
			names[h] = c
			found++
		}
	}
	if found < len(names) {
		t.Fatalf("no client homed on every one of %d shards: %v", len(names), names)
	}
	return names
}

// recordingConfig returns cfg recording into a fresh trace file.
func recordingConfig(t *testing.T, cfg Config, devices int) (Config, *replay.Recorder, string) {
	t.Helper()
	cfg.Benchmarks = []string{"VA", "MM"}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	rec, err := replay.NewRecorder(path, cfg.RecorderHeader(devices), replay.RecorderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Recorder = rec
	return cfg, rec, path
}

// TestFleetSharedRecorderBindsOnce: the shards of a fleet share one
// recorder, and only one of them exposes its instruments, so every
// flep_recorder_* family is one series in the strictly parsed /metrics and
// the records counter counts the trace.
func TestFleetSharedRecorderBindsOnce(t *testing.T) {
	cfg, rec, path := recordingConfig(t, Config{}, 2)
	f, ts := newTestFleet(t, FleetConfig{Config: cfg, Devices: 2})
	for _, c := range homedClients(t, f) {
		for i := 0; i < 3; i++ {
			if code, res := launch(t, ts.URL, LaunchRequest{Client: c, Benchmark: "VA", Class: "trivial"}); code != http.StatusOK {
				t.Fatalf("%s: code %d (%+v)", c, code, res)
			}
		}
	}
	snap := scrape(t, ts.URL)
	series := map[string]int{}
	for key := range snap {
		if name, _, _ := strings.Cut(key, "{"); strings.HasPrefix(name, "flep_recorder_") {
			series[name]++
		}
	}
	for _, fam := range []string{"flep_recorder_records_total", "flep_recorder_dropped_total",
		"flep_recorder_flushes_total", "flep_recorder_rotations_total", "flep_recorder_segment_bytes"} {
		if series[fam] != 1 {
			t.Errorf("%s: %d series on the fleet's /metrics, want 1 (all: %v)", fam, series[fam], series)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := replay.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	devices := map[int]bool{}
	for _, r := range tr.Records {
		devices[r.Device] = true
	}
	if len(devices) != 2 {
		t.Fatalf("trace records came from devices %v, want both shards", devices)
	}
	if got := snap.SumFamily("flep_recorder_records_total"); int(got) != len(tr.Records) {
		t.Fatalf("flep_recorder_records_total = %v, trace holds %d records", got, len(tr.Records))
	}
}

// TestEveryViewStampsTheShardIndex: a standalone server is device 0, and
// shard i of a fleet is device i, alike on the launch result, the status
// row and the trace record.
func TestEveryViewStampsTheShardIndex(t *testing.T) {
	for _, tc := range []struct {
		name    string
		devices int // 0: a standalone Server
	}{{"server", 0}, {"fleet of 3", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, rec, path := recordingConfig(t, Config{}, max(tc.devices, 1))
			var ts *httptest.Server
			clients := []string{"solo"}
			if tc.devices == 0 {
				_, ts = newTestServer(t, cfg)
			} else {
				var f *Fleet
				f, ts = newTestFleet(t, FleetConfig{Config: cfg, Devices: tc.devices})
				clients = homedClients(t, f)
			}
			for i, c := range clients {
				code, res := launch(t, ts.URL, LaunchRequest{Client: c, Benchmark: "VA", Class: "trivial"})
				if code != http.StatusOK || res.Device != i {
					t.Fatalf("%s: code %d, result stamped device %d, want %d", c, code, res.Device, i)
				}
			}
			st := getStatus(t, ts.URL)
			rows := []Status{st}
			if tc.devices > 0 {
				rows = st.Devices
			}
			if len(rows) != len(clients) {
				t.Fatalf("status has %d device rows, want %d", len(rows), len(clients))
			}
			for i, row := range rows {
				if row.Device != i || row.Counters.Completed != 1 {
					t.Fatalf("status row %d: device %d, completed %d", i, row.Device, row.Counters.Completed)
				}
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			tr, err := replay.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Records) != len(clients) {
				t.Fatalf("trace holds %d records, want %d", len(tr.Records), len(clients))
			}
			for _, r := range tr.Records {
				want := -1
				for i, c := range clients {
					if c == r.Client {
						want = i
					}
				}
				if r.Device != want {
					t.Fatalf("%s's record stamped device %d, want %d", r.Client, r.Device, want)
				}
			}
		})
	}
}
