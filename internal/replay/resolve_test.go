package replay

import (
	"fmt"
	"testing"

	"flep/internal/core"
)

// resolveTrace is a small flepd capture under header h: two launches on
// each of the header's devices, every one carrying its step index, so the
// trace supports step-exact replay.
func resolveTrace(h Header) *Trace {
	h.Magic, h.TraceVersion, h.Source = true, Version, SourceFlepd
	h.Benchmarks = []string{"MM", "VA"}
	tr := &Trace{Header: h}
	for d := 0; d < max(h.Devices, 1); d++ {
		tr.Records = append(tr.Records,
			Record{Seq: int64(len(tr.Records) + 1), At: 0, Step: 0, Device: d, Client: "low", Bench: "MM", Class: "small", Priority: 1},
			Record{Seq: int64(len(tr.Records) + 2), At: 1000, Step: 2, Device: d, Client: "high", Bench: "VA", Class: "small", Priority: 2})
	}
	return tr
}

// How a run configuration resolves against a trace header — what the
// summary reports as its mode, policy, spatial setting and device count —
// for every pairing of four recorded schedulers with the ways a run can
// deviate from them.
func TestReplayConfigResolution(t *testing.T) {
	headers := []struct {
		name string
		h    Header
	}{
		{"exact", Header{Options: core.Options{Policy: "hpf"}, Devices: 1}},
		{"spatial4", Header{Options: core.Options{Policy: "hpf", Spatial: true, SpatialSMs: 4}, Devices: 1}},
		{"ffs", Header{Options: core.Options{Policy: "ffs", MaxOverhead: 0.2, Weights: map[int]float64{1: 1, 2: 2.5}}, Devices: 1}},
		{"twodev", Header{Options: core.Options{Policy: "hpf"}, Devices: 2}},
	}
	cfgs := []struct {
		name string
		cfg  ReplayConfig
	}{
		{"zero", ReplayConfig{}},
		{"policy", ReplayConfig{Policy: "fifo"}},
		{"spa+3", ReplayConfig{Spa: 3}},
		{"spa-1", ReplayConfig{Spa: -1}},
		{"maxoverhead", ReplayConfig{MaxOverhead: 0.3}},
		{"devices1", ReplayConfig{Devices: 1}},
		{"devices3", ReplayConfig{Devices: 3}},
		{"L8", ReplayConfig{L: 8}},
	}
	want := map[string]string{
		"exact/zero":           "mode=exact policy=hpf spatial=false spatial_sms=0 devices=1",
		"exact/policy":         "mode=timed policy=fifo spatial=false spatial_sms=0 devices=1",
		"exact/spa+3":          "mode=timed policy=hpf spatial=true spatial_sms=3 devices=1",
		"exact/spa-1":          "mode=timed policy=hpf spatial=false spatial_sms=-1 devices=1",
		"exact/maxoverhead":    "mode=exact policy=hpf spatial=false spatial_sms=0 devices=1",
		"exact/devices1":       "mode=exact policy=hpf spatial=false spatial_sms=0 devices=1",
		"exact/devices3":       "mode=timed policy=hpf spatial=false spatial_sms=0 devices=3",
		"exact/L8":             "mode=timed policy=hpf spatial=false spatial_sms=0 devices=1",
		"spatial4/zero":        "mode=exact policy=hpf spatial=true spatial_sms=4 devices=1",
		"spatial4/policy":      "mode=timed policy=fifo spatial=true spatial_sms=4 devices=1",
		"spatial4/spa+3":       "mode=timed policy=hpf spatial=true spatial_sms=3 devices=1",
		"spatial4/spa-1":       "mode=timed policy=hpf spatial=false spatial_sms=-1 devices=1",
		"spatial4/maxoverhead": "mode=exact policy=hpf spatial=true spatial_sms=4 devices=1",
		"spatial4/devices1":    "mode=exact policy=hpf spatial=true spatial_sms=4 devices=1",
		"spatial4/devices3":    "mode=timed policy=hpf spatial=true spatial_sms=4 devices=3",
		"spatial4/L8":          "mode=timed policy=hpf spatial=true spatial_sms=4 devices=1",
		"ffs/zero":             "mode=exact policy=ffs spatial=false spatial_sms=0 devices=1",
		"ffs/policy":           "mode=timed policy=fifo spatial=false spatial_sms=0 devices=1",
		"ffs/spa+3":            "mode=timed policy=ffs spatial=true spatial_sms=3 devices=1",
		"ffs/spa-1":            "mode=timed policy=ffs spatial=false spatial_sms=-1 devices=1",
		"ffs/maxoverhead":      "mode=exact policy=ffs spatial=false spatial_sms=0 devices=1",
		"ffs/devices1":         "mode=exact policy=ffs spatial=false spatial_sms=0 devices=1",
		"ffs/devices3":         "mode=timed policy=ffs spatial=false spatial_sms=0 devices=3",
		"ffs/L8":               "mode=timed policy=ffs spatial=false spatial_sms=0 devices=1",
		"twodev/zero":          "mode=exact policy=hpf spatial=false spatial_sms=0 devices=2",
		"twodev/policy":        "mode=timed policy=fifo spatial=false spatial_sms=0 devices=2",
		"twodev/spa+3":         "mode=timed policy=hpf spatial=true spatial_sms=3 devices=2",
		"twodev/spa-1":         "mode=timed policy=hpf spatial=false spatial_sms=-1 devices=2",
		"twodev/maxoverhead":   "mode=exact policy=hpf spatial=false spatial_sms=0 devices=2",
		"twodev/devices1":      "mode=timed policy=hpf spatial=false spatial_sms=0 devices=1",
		"twodev/devices3":      "mode=timed policy=hpf spatial=false spatial_sms=0 devices=3",
		"twodev/L8":            "mode=timed policy=hpf spatial=false spatial_sms=0 devices=2",
	}
	for _, h := range headers {
		rp, err := NewReplayer(resolveTrace(h.h), ReplayerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfgs {
			sum, err := rp.Run(c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", h.name, c.name, err)
			}
			key := h.name + "/" + c.name
			got := fmt.Sprintf("mode=%s policy=%s spatial=%v spatial_sms=%d devices=%d",
				sum.Mode, sum.Policy, sum.Spatial, sum.SpatialSMs, sum.Devices)
			if got != want[key] {
				t.Errorf("%s: %s, want %s", key, got, want[key])
			}
		}
	}
}
