package workload

import (
	"testing"
	"time"

	"flep/internal/kernels"
)

func bench(t *testing.T, name string) *kernels.Benchmark {
	t.Helper()
	b, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPriorityPairShape(t *testing.T) {
	a, b := bench(t, "SPMV"), bench(t, "NN")
	sc := PriorityPair(a, b, 0)
	if sc.Name != "SPMV_NN" {
		t.Fatalf("name = %s", sc.Name)
	}
	if len(sc.Items) != 2 {
		t.Fatal("items != 2")
	}
	low, high := sc.Items[0], sc.Items[1]
	if low.Bench.Name != "NN" || low.Class != kernels.Large || low.Priority != 1 || low.At != 0 {
		t.Fatalf("low item %+v", low)
	}
	if high.Bench.Name != "SPMV" || high.Class != kernels.Small || high.Priority != 2 || high.At != Eps {
		t.Fatalf("high item %+v", high)
	}
}

func TestPriorityPairCustomDelay(t *testing.T) {
	a, b := bench(t, "SPMV"), bench(t, "NN")
	sc := PriorityPair(a, b, 5*time.Millisecond)
	if sc.Items[1].At != 5*time.Millisecond {
		t.Fatalf("delay = %v", sc.Items[1].At)
	}
}

func TestEqualPairPriorities(t *testing.T) {
	sc := EqualPair(bench(t, "VA"), bench(t, "NN"))
	if sc.Items[0].Priority != sc.Items[1].Priority {
		t.Fatal("equal pair with unequal priorities")
	}
	if sc.Items[0].Class != kernels.Large || sc.Items[1].Class != kernels.Small {
		t.Fatal("wrong input classes")
	}
}

func TestTripletShape(t *testing.T) {
	sc := Triplet(bench(t, "VA"), bench(t, "SPMV"), bench(t, "MM"))
	if sc.Name != "VA_SPMV_MM" || len(sc.Items) != 3 {
		t.Fatalf("triplet %+v", sc)
	}
	if sc.Items[0].Class != kernels.Large {
		t.Fatal("first kernel should run the large input")
	}
	if !(sc.Items[0].At < sc.Items[1].At && sc.Items[1].At < sc.Items[2].At) {
		t.Fatal("arrival order broken")
	}
}

func TestFairPairLoops(t *testing.T) {
	sc := FairPair(bench(t, "MM"), bench(t, "SPMV"), time.Second)
	if sc.Horizon != time.Second {
		t.Fatal("horizon not set")
	}
	for _, it := range sc.Items {
		if !it.Loop {
			t.Fatal("fair pair items must loop")
		}
	}
	if sc.Items[0].Priority <= sc.Items[1].Priority {
		t.Fatal("weight encoding broken")
	}
}

func TestSpatialPairUsesTrivialInput(t *testing.T) {
	sc := SpatialPair(bench(t, "NN"), bench(t, "CFD"))
	if sc.Items[1].Class != kernels.Trivial {
		t.Fatal("high-priority kernel should use the trivial input")
	}
	if sc.Items[0].Class != kernels.Large {
		t.Fatal("victim should use the large input")
	}
}

func TestPriorityPairsCount(t *testing.T) {
	pairs := PriorityPairs()
	if len(pairs) != 28 {
		t.Fatalf("pairs = %d, want 28 (4 low-priority × 7 others)", len(pairs))
	}
	lows := map[string]int{}
	for _, sc := range pairs {
		lows[sc.Items[0].Bench.Name]++
		if sc.Items[0].Bench.Name == sc.Items[1].Bench.Name {
			t.Fatalf("self-pair %s", sc.Name)
		}
	}
	for _, low := range []string{"CFD", "NN", "PF", "PL"} {
		if lows[low] != 7 {
			t.Fatalf("low %s appears %d times, want 7", low, lows[low])
		}
	}
}

func TestEqualPairsCount(t *testing.T) {
	pairs := EqualPairs()
	if len(pairs) != 28 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	shorts := map[string]int{}
	for _, sc := range pairs {
		shorts[sc.Items[1].Bench.Name]++
	}
	for _, sName := range []string{"MD", "MM", "SPMV", "VA"} {
		if shorts[sName] != 7 {
			t.Fatalf("short %s appears %d times", sName, shorts[sName])
		}
	}
}

func TestTripletsDeterministicAndValid(t *testing.T) {
	t1 := Triplets()
	t2 := Triplets()
	if len(t1) != 28 {
		t.Fatalf("triplets = %d", len(t1))
	}
	for i := range t1 {
		if t1[i].Name != t2[i].Name {
			t.Fatal("triplets not deterministic")
		}
		seen := map[string]bool{}
		for _, it := range t1[i].Items {
			if seen[it.Bench.Name] {
				t.Fatalf("duplicate benchmark in %s", t1[i].Name)
			}
			seen[it.Bench.Name] = true
		}
	}
	if t1[0].Name != "VA_SPMV_MM" {
		t.Fatalf("first triplet %s, want the paper's VA_SPMV_MM", t1[0].Name)
	}
}

func TestFairPairsCount(t *testing.T) {
	if got := len(FairPairs(time.Second)); got != 28 {
		t.Fatalf("fair pairs = %d", got)
	}
}
