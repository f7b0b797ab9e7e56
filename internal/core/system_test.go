package core

import (
	"sync"
	"testing"
	"time"

	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/metrics"
	"flep/internal/workload"
)

// sharedSystem builds the full offline phase once for the test package.
var (
	sysOnce sync.Once
	sysInst *System
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		s := NewSystem(gpu.DefaultParams())
		if err := s.OfflineAll(); err != nil {
			t.Fatalf("offline: %v", err)
		}
		sysInst = s
	})
	if sysInst == nil {
		t.Fatal("offline phase failed in an earlier test")
	}
	return sysInst
}

func TestOfflineBuildsAllArtifacts(t *testing.T) {
	s := testSystem(t)
	for _, b := range kernels.All() {
		a := s.Artifacts(b.Name)
		if a == nil {
			t.Fatalf("%s: no artifacts", b.Name)
		}
		if a.Model == nil || a.Profile == nil || a.Program == nil {
			t.Fatalf("%s: incomplete artifacts", b.Name)
		}
		if !a.TuneOK {
			t.Errorf("%s: tuner did not meet the 4%% constraint (L=%d, %.2f%%)",
				b.Name, a.L, a.TunedOverhead*100)
		}
		if a.PreemptOverhead <= 0 {
			t.Errorf("%s: no preemption overhead estimate", b.Name)
		}
	}
}

// The tuned amortizing factors must reproduce Table 1's ordering: heavy
// per-task kernels need L=1; fine-grained kernels need large L, with VA the
// largest.
func TestTunedAmortizingFactorsMatchPaperShape(t *testing.T) {
	s := testSystem(t)
	l := func(name string) int { return s.Artifacts(name).L }
	if l("CFD") != 1 || l("MD") != 1 {
		t.Errorf("CFD/MD L = %d/%d, want 1/1", l("CFD"), l("MD"))
	}
	if l("SPMV") > 4 || l("MM") > 4 {
		t.Errorf("SPMV/MM L = %d/%d, want ≈2", l("SPMV"), l("MM"))
	}
	for _, name := range []string{"NN", "PF", "PL"} {
		if l(name) < 30 || l(name) > 400 {
			t.Errorf("%s L = %d, want O(100)", name, l(name))
		}
	}
	if l("VA") < l("NN") || l("VA") < 100 {
		t.Errorf("VA L = %d, should be the largest (NN=%d)", l("VA"), l("NN"))
	}
	t.Logf("tuned L: CFD=%d NN=%d PF=%d PL=%d MD=%d SPMV=%d MM=%d VA=%d",
		l("CFD"), l("NN"), l("PF"), l("PL"), l("MD"), l("SPMV"), l("MM"), l("VA"))
}

func TestPredictionAccuracy(t *testing.T) {
	s := testSystem(t)
	for _, b := range kernels.All() {
		for _, c := range []kernels.InputClass{kernels.Large, kernels.Small} {
			in := b.Input(c)
			pred, err := s.Predict(b, in)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := s.SoloTime(b, c)
			if err != nil {
				t.Fatal(err)
			}
			errFrac := (pred - truth).Seconds() / truth.Seconds()
			if errFrac < 0 {
				errFrac = -errFrac
			}
			// Calibrated inputs carry no noise; the model's error on them
			// is its systematic bias, which must stay modest.
			if errFrac > 0.30 {
				t.Errorf("%s/%s: prediction error %.1f%% (pred %v, truth %v)",
					b.Name, c, errFrac*100, pred, truth)
			}
		}
	}
}

func TestFLEPPriorityPairBeatsMPS(t *testing.T) {
	s := testSystem(t)
	spmv, _ := kernels.ByName("SPMV")
	nn, _ := kernels.ByName("NN")
	sc := workload.PriorityPair(spmv, nn, 0) // SPMV small hi-prio vs NN large

	mps, err := s.RunMPS(sc)
	if err != nil {
		t.Fatal(err)
	}
	flep, err := s.RunFLEP(sc, Options{Policy: "hpf"})
	if err != nil {
		t.Fatal(err)
	}
	mpsHi := mps.ResultFor("SPMV")
	flepHi := flep.ResultFor("SPMV")
	if mpsHi == nil || flepHi == nil {
		t.Fatal("missing results")
	}
	speedup := metrics.Speedup(mpsHi.Turnaround, flepHi.Turnaround)
	// Paper: up to 24.2x for SPMV_NN.
	if speedup < 15 || speedup > 35 {
		t.Fatalf("SPMV_NN speedup = %.1fx, paper reports ≈24x", speedup)
	}
	// The low-priority kernel must still finish.
	if flep.ResultFor("NN") == nil {
		t.Fatal("NN never finished under FLEP")
	}
	t.Logf("SPMV_NN: MPS %v → FLEP %v (%.1fx)", mpsHi.Turnaround, flepHi.Turnaround, speedup)
}

func TestFLEPEqualPairImprovesANTT(t *testing.T) {
	s := testSystem(t)
	va, _ := kernels.ByName("VA")
	nn, _ := kernels.ByName("NN")
	sc := workload.EqualPair(va, nn) // VA small + NN large, equal prio

	mps, err := s.RunMPS(sc)
	if err != nil {
		t.Fatal(err)
	}
	flep, err := s.RunFLEP(sc, Options{Policy: "hpf"})
	if err != nil {
		t.Fatal(err)
	}
	mpsRuns, flepRuns := mps.Results, flep.Results
	anttMPS := metrics.ANTT(mpsRuns)
	anttFLEP := metrics.ANTT(flepRuns)
	if anttFLEP >= anttMPS {
		t.Fatalf("FLEP ANTT %.2f not better than MPS %.2f", anttFLEP, anttMPS)
	}
	improvement := anttMPS / anttFLEP
	if improvement < 2 {
		t.Fatalf("ANTT improvement only %.2fx", improvement)
	}
	// Throughput cost should be modest (Fig. 11: ~5.4% average).
	stpLoss := 1 - metrics.STP(flepRuns)/metrics.STP(mpsRuns)
	if stpLoss > 0.25 {
		t.Fatalf("STP degradation %.1f%% too high", stpLoss*100)
	}
	t.Logf("ANTT: MPS %.2f → FLEP %.2f (%.1fx), STP loss %.1f%%",
		anttMPS, anttFLEP, improvement, stpLoss*100)
}

func TestSpatialRunCompletes(t *testing.T) {
	s := testSystem(t)
	nn, _ := kernels.ByName("NN")
	cfd, _ := kernels.ByName("CFD")
	sc := workload.SpatialPair(nn, cfd) // NN trivial hi-prio vs CFD large
	res, err := s.RunFLEP(sc, Options{Policy: "hpf", Spatial: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultFor("NN") == nil || res.ResultFor("CFD") == nil {
		t.Fatal("not all kernels finished")
	}
	// The drain must have been spatial (victim kept running).
	sawSpatial := false
	for _, e := range res.Log.Filter("drained", 0) {
		if len(e.Detail) >= 7 && e.Detail[:7] == "spatial" {
			sawSpatial = true
		}
	}
	if !sawSpatial {
		t.Fatal("no spatial drain recorded")
	}
}

func TestSpatialReducesPreemptionOverhead(t *testing.T) {
	s := testSystem(t)
	nn, _ := kernels.ByName("NN")
	cfd, _ := kernels.ByName("CFD")
	sc := workload.SpatialPair(nn, cfd)
	org, err := s.RunMPS(sc)
	if err != nil {
		t.Fatal(err)
	}
	temporal, err := s.RunFLEP(sc, Options{Policy: "hpf", Spatial: false})
	if err != nil {
		t.Fatal(err)
	}
	spatial, err := s.RunFLEP(sc, Options{Policy: "hpf", Spatial: true})
	if err != nil {
		t.Fatal(err)
	}
	ovT := (temporal.Makespan - org.Makespan).Seconds() / org.Makespan.Seconds()
	ovS := (spatial.Makespan - org.Makespan).Seconds() / org.Makespan.Seconds()
	if ovS >= ovT {
		t.Fatalf("spatial overhead %.4f not below temporal %.4f", ovS, ovT)
	}
	t.Logf("preemption overhead: temporal %.3f%%, spatial %.3f%% (%.0f%% reduction)",
		ovT*100, ovS*100, (1-ovS/ovT)*100)
}

func TestRunSlicedAndReorder(t *testing.T) {
	s := testSystem(t)
	mm, _ := kernels.ByName("MM")
	nn, _ := kernels.ByName("NN")
	sc := workload.PriorityPair(mm, nn, 0) // MM small high-prio vs NN large
	sliced, err := s.RunSliced(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	reorder, err := s.RunReorder(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(sliced.Results) != 2 || len(reorder.Results) != 2 {
		t.Fatal("baseline runs incomplete")
	}
	// Slicing preempts at slice boundaries: high-priority MM should finish
	// before NN (long) despite arriving second. Results are in completion
	// order.
	if sliced.Results[0].Name != "MM" {
		t.Fatal("slicing did not let the high-priority kernel run first")
	}
	// Reordering cannot preempt the already-running NN.
	if reorder.Results[0].Name != "NN" {
		t.Fatal("reordering preempted a running kernel")
	}
}

func TestFFSRunProducesShares(t *testing.T) {
	s := testSystem(t)
	mm, _ := kernels.ByName("MM")
	spmv, _ := kernels.ByName("SPMV")
	sc := workload.FairPair(mm, spmv, 100*time.Millisecond)
	res, err := s.RunFLEP(sc, Options{
		Policy: "ffs", MaxOverhead: 0.10,
		Weights:     map[int]float64{2: 2, 1: 1},
		ShareWindow: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hi := metrics.MeanShare(res.Shares, "MM")
	lo := metrics.MeanShare(res.Shares, "SPMV")
	if hi <= 0 || lo <= 0 {
		t.Fatalf("shares hi=%f lo=%f", hi, lo)
	}
	ratio := hi / lo
	if ratio < 1.5 || ratio > 2.6 {
		t.Fatalf("share ratio %.2f, want ≈2 (hi=%.3f lo=%.3f)", ratio, hi, lo)
	}
	if res.Completions["MM"] == 0 || res.Completions["SPMV"] == 0 {
		t.Fatal("closed-loop clients did not complete invocations")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	s := testSystem(t)
	va, _ := kernels.ByName("VA")
	nn, _ := kernels.ByName("NN")
	if _, err := s.RunFLEP(workload.EqualPair(va, nn), Options{Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestRunFLEPWithoutOfflineFails(t *testing.T) {
	s := NewSystem(gpu.DefaultParams())
	va, _ := kernels.ByName("VA")
	nn, _ := kernels.ByName("NN")
	if _, err := s.RunFLEP(workload.EqualPair(va, nn), Options{}); err == nil {
		t.Fatal("run without offline artifacts accepted")
	}
}
