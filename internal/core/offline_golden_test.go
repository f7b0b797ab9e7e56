package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"flep/internal/cudalite"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/perfmodel"
	"flep/internal/transform"
)

// offlineGolden is one sha256 per benchmark over every offline artifact of
// the paper's K40 (see artifactDigest). A change that moves any of them
// moves a prediction, a tuned L or an ANTT denominator somewhere
// downstream.
var offlineGolden = map[string]string{
	"CFD":  "b9e7f9629a1fc8e409040972d3e30fcc64b89cf28934173edfa8e6c5c7b42fca",
	"NN":   "a0e8721f4116d7cf2bb9004b78e8c088d07298156e853192ea09eba64d84688a",
	"PF":   "2a44f218df4dbbd571b8c994787c244a23f346ac8aed38d5874353734f554eb1",
	"PL":   "2c50e9cd335bd2d4c29c2e3ccefdc9ad1bf9f8dc4bd30b7bdaeb9c205185642d",
	"MD":   "e3098e5e90785c262877921fbcca803197266de4900513a4ccdbafe4b288dc79",
	"SPMV": "e06c82707debdb5c5882ea6a35e52a7ab2f5108650f2d32987fbfd359d32536d",
	"MM":   "2a10bc033465b61e976d0870273df4273e4ae58228813b345c5472efc27970fb",
	"VA":   "587e2bf5ea6181eae84d4fd69ec78d04277e7482081c6b4075ab780e788d9c09",
}

// artifactDigest hashes everything the offline phase produced for b on s:
// the profile, the resource estimate, L and the tuner's verdict (overhead
// bits), the profiled preemption overhead, the model's exported state, the
// original source, the spatial-mode compilation of it with the
// generated-kernel description, and the three solo baselines. The offline
// phase does not compile (no launch runs the compiled kernel), so the
// compilation is done here, from the artifacts' program, and hashes the
// bytes the phase once stored. The model's state is hashed as it enters a
// prediction: Predict skips a feature that was constant in training, so
// that feature's recorded mean is left out.
func artifactDigest(t *testing.T, s *System, b *kernels.Benchmark) string {
	t.Helper()
	a := s.Artifacts(b.Name)
	if a == nil {
		t.Fatalf("%s: no artifacts", b.Name)
	}
	h := sha256.New()
	fmt.Fprintf(h, "profile %+v\nresources %+v\n", *a.Profile, a.Resources)
	fmt.Fprintf(h, "L %d overhead %x ok %t preempt %d\n",
		a.L, math.Float64bits(a.TunedOverhead), a.TuneOK, a.PreemptOverhead)
	st := modelParams(t, a.Model)
	for j, sd := range st.Std {
		if sd == 0 {
			st.Mean[j] = 0
		}
	}
	model, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	out, info, err := transform.TransformKernel(a.Program, b.KernelName, transform.ModeSpatial)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	fmt.Fprintf(h, "model %s\ninfo %+v\n", model, *info)
	fmt.Fprintf(h, "program\n%s\ntransformed\n%s\n", cudalite.Format(a.Program), cudalite.Format(out))
	for _, c := range kernels.Classes() {
		d, err := s.SoloTime(b, c)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "solo %s %d\n", c, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ridgeParams is a trained duration model's parameters in the JSON shape
// the digests were recorded over.
type ridgeParams struct {
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
	Mean      []float64 `json:"mean"`
	Std       []float64 `json:"std"`
}

// modelParams reads m's parameters from perfmodel.Model's unexported
// fields. It fails on a field it does not know, so a parameter added to
// the model cannot drop out of the digest unnoticed.
func modelParams(t *testing.T, m *perfmodel.Model) ridgeParams {
	t.Helper()
	v := reflect.ValueOf(m).Elem()
	var p ridgeParams
	vectors := map[string]*[]float64{"weights": &p.Weights, "mean": &p.Mean, "std": &p.Std}
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if name == "intercept" {
			p.Intercept = f.Float()
			continue
		}
		dst := vectors[name]
		if dst == nil {
			t.Fatalf("perfmodel.Model has a field %s the digest does not read", name)
		}
		for j := 0; j < f.Len(); j++ {
			*dst = append(*dst, f.Index(j).Float())
		}
	}
	return p
}

// checkOfflineGolden compares every benchmark's artifacts on s with the
// oracle.
func checkOfflineGolden(t *testing.T, s *System) {
	t.Helper()
	for _, b := range kernels.All() {
		if got, want := artifactDigest(t, s, b), offlineGolden[b.Name]; got != want {
			t.Errorf("%s: artifact digest %s, want %s", b.Name, got, want)
		}
	}
}

// TestOfflineArtifactsGolden pins the offline phase's output bit for bit,
// on a fresh system so no other test's use of the shared one can leak in.
func TestOfflineArtifactsGolden(t *testing.T) {
	s := NewSystem(gpu.DefaultParams())
	if err := s.OfflineAll(); err != nil {
		t.Fatal(err)
	}
	checkOfflineGolden(t, s)
}
