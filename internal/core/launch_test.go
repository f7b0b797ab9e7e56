package core_test

// An external test package: comparing core's launch translation with
// server.WorkingSet needs the server, which itself imports core.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/server"
	"flep/internal/workload"
)

func TestTasksOverrideRespected(t *testing.T) {
	nn, _ := kernels.ByName("NN")
	cfd, _ := kernels.ByName("CFD")
	s := core.NewSystem(gpu.DefaultParams())
	if err := s.Offline([]*kernels.Benchmark{nn, cfd}); err != nil {
		t.Fatal(err)
	}
	sc := workload.SpatialPair(nn, cfd)
	sc.Items[1].TasksOverride = 16
	res, err := s.RunFLEP(sc, core.Options{Policy: "hpf", Spatial: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// With only 16 CTAs (2 SMs at occupancy 8), the spatial drain must
	// free exactly 2 SMs.
	saw := false
	for _, e := range res.Log.Filter("drained", 0) {
		if e.Kernel == "CFD" && e.SMHi-e.SMLo == 2 {
			saw = true
		}
	}
	if !saw {
		t.Fatal("16-CTA override did not yield a 2-SM spatial drain")
	}

	// The overridden launch as the one launch path translates it: Te is the
	// prediction for the overridden input, and the working set is the
	// figure the serving tier places by for the same request.
	item := sc.Items[1]
	st, err := s.NewStack(core.Options{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.NewInvocation(core.Launch{
		Bench: item.Bench, Class: item.Class, TasksOverride: item.TasksOverride, Priority: item.Priority,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTe, err := s.Predict(item.Bench, item.Bench.LaunchInput(item.Class, item.TasksOverride))
	if err != nil {
		t.Fatal(err)
	}
	if v.Tasks != 16 || v.Te != wantTe || v.Te == 0 {
		t.Fatalf("invocation tasks=%d Te=%v, want 16 tasks and Predict's %v", v.Tasks, v.Te, wantTe)
	}
	if plain, _ := s.Predict(item.Bench, item.Bench.Input(item.Class)); v.Te == plain {
		t.Fatalf("Te %v ignores the override", v.Te)
	}

	srv, err := server.NewWithSystem(s.Clone(), server.Config{Benchmarks: []string{"NN", "CFD"}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/benchmarks", nil))
	var catalog []server.BenchmarkInfo
	if err := json.NewDecoder(rec.Body).Decode(&catalog); err != nil {
		t.Fatal(err)
	}
	req := server.LaunchRequest{Benchmark: item.Bench.Name, Class: item.Class.String(), TasksOverride: item.TasksOverride}
	if got := server.WorkingSet(catalog, req); got != v.WorkingSet || got == 0 {
		t.Fatalf("server.WorkingSet = %d, invocation working set = %d", got, v.WorkingSet)
	}
}
