package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"flep/internal/core"
	"flep/internal/kernels"
	"flep/internal/workload"
)

// recycledTrace is the recycling oracle's input: a seeded mix of one tenant
// per benchmark — every input class, three priorities, weighted and
// deadline-bearing tenants — relabelled as a two-device flepd capture with
// seeded step indices. One replayer then runs it step-exact under the
// recorded configuration and timed under every other, and its offline phase
// covers every benchmark, so RunFLEP can run on the same system.
func recycledTrace(t *testing.T) *Trace {
	t.Helper()
	classes := []string{"small", "trivial", "large", "small"}
	var tenants []MixTenant
	for i, b := range kernels.All() {
		ten := MixTenant{
			Client: fmt.Sprintf("t%d", i), Bench: b.Name, Class: classes[i%len(classes)],
			Priority: 1 + i%3, Weight: float64(i % 3), Period: time.Duration(700+300*i) * time.Microsecond, Count: 80,
		}
		if ten.Class == "large" {
			ten.Period, ten.Count = 25*time.Millisecond, 6
		}
		if i%3 == 2 {
			ten.Deadline = time.Duration(2+i) * time.Millisecond
		}
		tenants = append(tenants, ten)
	}
	tr, err := SynthesizeMix(tenants, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr.Header.Source, tr.Header.Policy, tr.Header.Devices = SourceFlepd, "hpf", 2
	rng := rand.New(rand.NewSource(5))
	var steps [2]int64
	for i := range tr.Records {
		r := &tr.Records[i]
		r.Device = rng.Intn(2)
		steps[r.Device] += 1 + rng.Int63n(3)
		r.Step = steps[r.Device]
	}
	if !tr.Exact() {
		t.Fatal("the oracle trace does not support step-exact replay")
	}
	return tr
}

// recycledConfigs is the replay axis: policy × devices × spatial × L, each
// with its own router seed, after the as-recorded configuration.
func recycledConfigs() []ReplayConfig {
	cfgs := []ReplayConfig{{}}
	for _, p := range []string{"hpf", "ffs", "edf", "fifo"} {
		for _, d := range []int{1, 2, 3} {
			for _, spa := range []int{-1, 4} {
				for _, l := range []int{0, 8} {
					cfgs = append(cfgs, ReplayConfig{Policy: p, Spa: spa, Devices: d, L: l, Seed: int64(len(cfgs))})
				}
			}
		}
	}
	return cfgs
}

// recycledScenarios is the RunFLEP axis: Figure 13's 28 closed-loop pairs
// and a seeded mix of open- and closed-loop items over every benchmark.
func recycledScenarios() []workload.Scenario {
	scs := workload.FairPairs(60 * time.Millisecond)
	rng := rand.New(rand.NewSource(9))
	mix := workload.Scenario{Name: "seeded_mix", Horizon: 80 * time.Millisecond}
	all := kernels.All()
	for i := 0; i < 24; i++ {
		it := workload.Item{
			Bench: all[rng.Intn(len(all))], Class: kernels.Classes()[rng.Intn(3)],
			Priority: 1 + rng.Intn(3), At: time.Duration(rng.Intn(20_000)) * time.Microsecond,
			Loop: rng.Intn(3) == 0,
		}
		if rng.Intn(4) == 0 {
			it.TasksOverride = 16 + rng.Intn(400)
		}
		mix.Items = append(mix.Items, it)
	}
	return append(scs, mix)
}

// runDigest is the sha256 of everything a RunFLEP result of sc reports:
// each record with its item's launch, and the instants it was submitted and
// finished — its item's arrival, or for a closed-loop relaunch its previous
// launch's finish, plus the record's turnaround.
func runDigest(sc workload.Scenario, res *core.RunResult) string {
	h := sha256.New()
	next := make([]time.Duration, len(sc.Items))
	for k, item := range sc.Items {
		next[k] = item.At
	}
	for i, r := range res.Results {
		k := res.Items[i]
		item, submitted := sc.Items[k], next[k]
		next[k] = submitted + r.Turnaround
		fmt.Fprintf(h, "%s %v %d %d %d %d %d %d\n", r.Name, item.Class, item.TasksOverride, item.Priority,
			submitted, next[k], r.Waiting, r.Preemptions)
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
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRecycledInvocationsMatchFresh pins, as sha256s, what fresh invocation
// storage produces: the Summary JSON of every replay configuration on one
// trace, and the Results of RunFLEP over the fair pairs and a seeded mix
// under hpf, ffs, edf and fifo. The file was generated from the code as it
// stood when every launch allocated its own Invocation. One Replayer runs
// the whole replay axis twice, forwards and then backwards, so storage a run
// leaves behind is reused by configurations of every other shape.
// `go test ./internal/replay -run TestRecycledInvocationsMatchFresh -update`
// rewrites the file.
func TestRecycledInvocationsMatchFresh(t *testing.T) {
	rp, err := NewReplayer(recycledTrace(t), ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := recycledConfigs()
	replayLine := func(cfg ReplayConfig) string {
		sum, err := rp.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("replay policy=%s devices=%d spatial=%v L=%d seed=%d mode=%s %x", cfg.Policy, cfg.Devices, sum.Spatial, cfg.L, cfg.Seed, sum.Mode, sha256.Sum256(js))
	}
	lines := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		lines[i] = replayLine(cfg)
	}
	for i := len(cfgs) - 1; i >= 0; i-- {
		if again := replayLine(cfgs[i]); again != lines[i] {
			t.Errorf("a second run on the same replayer diverged:\n got %s\nwant %s", again, lines[i])
		}
	}
	opts := map[string]core.Options{
		"hpf": {Policy: "hpf"}, "ffs": {Policy: "ffs", MaxOverhead: 0.10, Weights: map[int]float64{2: 2, 1: 1}},
		"edf": {Policy: "edf"}, "fifo": {Policy: "fifo"},
	}
	for _, p := range []string{"hpf", "ffs", "edf", "fifo"} {
		sys := rp.sys.Clone()
		for _, sc := range recycledScenarios() {
			res, err := sys.RunFLEP(sc, opts[p])
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("runflep policy=%s scenario=%s results=%d %s", p, sc.Name, len(res.Results), runDigest(sc, res)))
		}
	}
	var got bytes.Buffer
	for _, l := range lines {
		got.WriteString(l + "\n")
	}
	path := filepath.Join("testdata", "recycled_sha256.txt")
	if *updateSummaries {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells, %s has %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("diverged from %s:\n got %s\nwant %s", path, gotLines[i], wantLines[i])
		}
	}
}
