package core

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"flep/internal/kernels"
	"flep/internal/workload"
)

// recordsGolden is one sha256 per (scenario set, driver) over the record of
// every finished launch (see recordsDigest): what every paper figure reads
// from a scenario run. A change to how a scenario run writes its records
// must leave each of them where it is.
var recordsGolden = map[string]string{
	"PriorityPairs/mps":  "492dbc23f3f558876d358922e9bb6e7e1a70b4493cb08cfd36e7ed444642e0f3",
	"PriorityPairs/hpf":  "9bca9f15fe6da829b4eca283e0fb57b396384e5f7eec52e1f2deda1e03cb89b9",
	"EqualPairs/mps":     "7ae3803dcdb40caf27c9bd4c9e373c7ad59f2c2541b0f1b73aebc4da4e0c1de9",
	"EqualPairs/hpf":     "cc97b5e85a444466dea1e9820e692144d7aad8c5e84c6a30ec8b9277ac34e208",
	"Triplets/mps":       "91275b94b03212d92ad9c1006f91aca37400b0441e9e357632f2d5d079045c78",
	"Triplets/hpf":       "4f2637093d938f13d16b49b54e72e02b38df434d8832da3d621a1ac154da75f9",
	"Triplets/reorder":   "1e69f1e9bef4c3376716fa47a6203c3e0f1a4b34c354afee22df8817545506df",
	"MM_NN/sliced":       "4015d20b2ad0fc7289d73e6f24ba681828dc5749675350accdb6c4958d003b91",
	"NN_CFD_spatial/hpf": "f7916c32bdcd66a91eb7e0a69bd7843834665a71aa064381caad6adf640de208",
	"MM_SPMV_fair/ffs":   "3cce33b461662816c727be2a7798f4f6e3b8b9fc157d1510fb319af32b7eb455",
	"VA_VA/mps":          "659f213bed8dfacf72e9e8923d5869925a11eb5695610173e456693c75872e15",
	"VA_VA/hpf":          "e94dfdcd5e8ed7986cd1a163bf12254eec9ddcdc6d12af0e11b0a29f2d0ee72e",
}

// recordsCase is one (scenario set, driver) the oracle pins.
type recordsCase struct {
	name      string
	scenarios []workload.Scenario
	run       func(s *System, sc workload.Scenario) (*RunResult, error)
}

func recordsCases() []recordsCase {
	mps := func(s *System, sc workload.Scenario) (*RunResult, error) { return s.RunMPS(sc) }
	hpf := func(s *System, sc workload.Scenario) (*RunResult, error) {
		return s.RunFLEP(sc, Options{Policy: "hpf"})
	}
	reorder := func(s *System, sc workload.Scenario) (*RunResult, error) { return s.RunReorder(sc) }
	sliced := func(s *System, sc workload.Scenario) (*RunResult, error) { return s.RunSliced(sc, 0) }
	spatial := func(s *System, sc workload.Scenario) (*RunResult, error) {
		return s.RunFLEP(sc, Options{Policy: "hpf", Spatial: true})
	}
	ffs := func(s *System, sc workload.Scenario) (*RunResult, error) {
		return s.RunFLEP(sc, Options{Policy: "ffs", MaxOverhead: 0.10, Weights: map[int]float64{2: 2, 1: 1}})
	}
	bench := func(name string) *kernels.Benchmark {
		b, err := kernels.ByName(name)
		if err != nil {
			panic(err)
		}
		return b
	}
	// Figure 16's shape: a 16-CTA guest, whose overridden input has no
	// calibrated baseline.
	guest := workload.SpatialPair(bench("NN"), bench("CFD"))
	guest.Items[1].TasksOverride = 16
	one := func(sc workload.Scenario) []workload.Scenario { return []workload.Scenario{sc} }
	vava := one(workload.PriorityPair(bench("VA"), bench("VA"), 0)) // flepsim -pair VA,VA
	return []recordsCase{
		{"PriorityPairs/mps", workload.PriorityPairs(), mps},
		{"PriorityPairs/hpf", workload.PriorityPairs(), hpf},
		{"EqualPairs/mps", workload.EqualPairs(), mps},
		{"EqualPairs/hpf", workload.EqualPairs(), hpf},
		{"Triplets/mps", workload.Triplets(), mps},
		{"Triplets/hpf", workload.Triplets(), hpf},
		{"Triplets/reorder", workload.Triplets(), reorder},
		{"MM_NN/sliced", one(workload.PriorityPair(bench("MM"), bench("NN"), 0)), sliced},
		{"NN_CFD_spatial/hpf", one(guest), spatial},
		{"MM_SPMV_fair/ffs", one(workload.FairPair(bench("MM"), bench("SPMV"), 100*time.Millisecond)), ffs},
		{"VA_VA/mps", vava, mps},
		{"VA_VA/hpf", vava, hpf},
	}
}

// scenarioRecord is what the oracle reads of one finished launch.
type scenarioRecord struct {
	name                       string
	item                       int
	alone, turnaround, waiting time.Duration
	preemptions                int
}

// scenarioRecords reads res's records in completion order, each with the
// index of the scenario item it ran.
func scenarioRecords(res *RunResult) []scenarioRecord {
	out := make([]scenarioRecord, len(res.Results))
	for i, r := range res.Results {
		out[i] = scenarioRecord{r.Name, res.Items[i], r.Alone, r.Turnaround, r.Waiting, r.Preemptions}
	}
	return out
}

// recordsDigest hashes, for every scenario of c in order, every record in
// completion order — name, scenario item, solo baseline, turnaround,
// waiting and preemptions — then the per-kernel completions and the
// makespan.
func recordsDigest(t *testing.T, s *System, c recordsCase) string {
	t.Helper()
	h := sha256.New()
	for _, sc := range c.scenarios {
		res, err := c.run(s, sc)
		if err != nil {
			t.Fatalf("%s %s: %v", c.name, sc.Name, err)
		}
		fmt.Fprintf(h, "scenario %s\n", sc.Name)
		for _, r := range scenarioRecords(res) {
			fmt.Fprintf(h, "%s item=%d alone=%d turnaround=%d waiting=%d preemptions=%d\n",
				r.name, r.item, r.alone, r.turnaround, r.waiting, r.preemptions)
		}
		names := make([]string, 0, len(res.Completions))
		for name := range res.Completions {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "%s=%d\n", name, res.Completions[name])
		}
		fmt.Fprintf(h, "makespan %d\n", res.Makespan)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestScenarioRecordsGolden holds every scenario driver's records — the
// inputs of every paper figure's ANTT, STP and speedup — to the digests
// above.
func TestScenarioRecordsGolden(t *testing.T) {
	s := testSystem(t)
	for _, c := range recordsCases() {
		got := recordsDigest(t, s, c)
		if want := recordsGolden[c.name]; got != want {
			t.Errorf("%s: records digest %s, want %s", c.name, got, want)
		}
	}
}
