package replay

import (
	"testing"
	"time"

	"flep/internal/core"
	"flep/internal/gpu"
	"flep/internal/kernels"
	"flep/internal/workload"
)

// TestResolvedShapesMatchPredict holds every resolved launch shape to the
// derivation it stands in for: its Te must be System.Predict's for the
// launch's input, bit for bit, and its baseline SoloTime's, or none under a
// positive task override. It covers every record of the what-if mix as the
// replayer resolved it, every FairPairs item, and every benchmark × class ×
// override in {0, 1, 7}.
func TestResolvedShapesMatchPredict(t *testing.T) {
	check := func(what string, sys *core.System, sh *core.Shape, b *kernels.Benchmark, c kernels.InputClass, o int) {
		t.Helper()
		te, err := sys.Predict(b, b.LaunchInput(c, o))
		if err != nil {
			t.Fatal(err)
		}
		var alone time.Duration
		if o <= 0 {
			if alone, err = sys.SoloTime(b, c); err != nil {
				t.Fatal(err)
			}
		}
		if sh.Bench() != b || sh.Class() != c || sh.TasksOverride() != o {
			t.Errorf("%s: resolved as %s %v override %d", what, sh.Bench().Name, sh.Class(), sh.TasksOverride())
		}
		if sh.Te() != te || sh.Alone() != alone {
			t.Errorf("%s: resolved Te %d and baseline %d, Predict gives %d and SoloTime %d", what, sh.Te(), sh.Alone(), te, alone)
		}
	}

	tr, err := SynthesizeMix(whatIfMix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Records {
		rec := &tr.Records[i]
		b, err := kernels.ByName(rec.Bench)
		if err != nil {
			t.Fatal(err)
		}
		c, err := kernels.ParseClass(rec.Class)
		if err != nil {
			t.Fatal(err)
		}
		sh := &rp.shapes[rp.shapeOf[i]]
		if sh.err != nil {
			t.Fatalf("record %d: %v", rec.Seq, sh.err)
		}
		check("what-if record "+rec.Client, rp.sys, &sh.Shape, b, c, rec.TasksOverride)
	}
	if len(rp.shapes) != len(whatIfMix()) {
		t.Errorf("%d shapes resolved for a mix of %d, one per tenant", len(rp.shapes), len(whatIfMix()))
	}

	sys := core.NewSystem(gpu.DefaultParams())
	if err := sys.OfflineAll(); err != nil {
		t.Fatal(err)
	}
	for _, sc := range workload.FairPairs(60 * time.Millisecond) {
		for _, item := range sc.Items {
			sh, err := sys.Resolve(item.Bench, item.Class, item.TasksOverride)
			if err != nil {
				t.Fatal(err)
			}
			check(sc.Name+" "+item.Bench.Name, sys, &sh, item.Bench, item.Class, item.TasksOverride)
		}
	}
	for _, b := range kernels.All() {
		for _, c := range kernels.Classes() {
			for _, o := range []int{0, 1, 7} {
				sh, err := sys.Resolve(b, c, o)
				if err != nil {
					t.Fatal(err)
				}
				check(b.Name+" "+c.String(), sys, &sh, b, c, o)
			}
		}
	}
}
