package perf

import "testing"

func set(seed int64, workload string, values map[string][]float64) *ResultSet {
	return &ResultSet{Seed: seed, Correct: true, Workloads: map[string]map[string][]float64{workload: values}}
}

func verdicts(cs []Comparison) map[string]Verdict {
	out := map[string]Verdict{}
	for _, c := range cs {
		out[c.Workload+"/"+c.Metric] = c.Verdict
	}
	return out
}

func TestCompareAgainstBounds(t *testing.T) {
	ref := set(1, LaunchTrivial, map[string][]float64{
		"launches_per_s":    {1000},
		"launch_p50_us":     {50},
		"launch_p99_us":     {500},
		"cpu_us_per_launch": {60},
		"failed_share":      {0},
		"sim.ns_per_event":  {200},
	})
	chg := set(1, LaunchTrivial, map[string][]float64{
		"launches_per_s":    {800}, // 20% fewer: within 25%
		"launch_p50_us":     {65},  // 30% slower: beyond 25%
		"launch_p99_us":     {400}, // better
		"cpu_us_per_launch": {76},
		"failed_share":      {0.002}, // beyond 0.001 absolute
		"sim.ns_per_event":  {900},   // per-layer: no bound, not judged
	})
	got := verdicts(Compare(ref, chg))
	want := map[string]Verdict{
		"launch_trivial/launches_per_s":    OK,
		"launch_trivial/launch_p50_us":     Regressed,
		"launch_trivial/launch_p99_us":     OK,
		"launch_trivial/cpu_us_per_launch": Regressed,
		"launch_trivial/failed_share":      Regressed,
	}
	if len(got) != len(want) {
		t.Errorf("judged %v, want exactly %v", got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %s, want %s", k, got[k], w)
		}
	}
}

func TestCompareUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	noisy := []float64{600, 800, 1000, 1200, 1400} // IQR 600 > 25% of 1000
	ref := set(1, LaunchTrivial, map[string][]float64{"launches_per_s": noisy})
	same := set(1, LaunchTrivial, map[string][]float64{"launches_per_s": {590, 810, 990, 1210, 1390}})
	if v := verdicts(Compare(ref, same))["launch_trivial/launches_per_s"]; v != Unresolved {
		t.Errorf("overlapping noisy runs: %s, want unresolved", v)
	}
	// Every run of the change better than every run of the reference
	// resolves it however wide the spread.
	better := set(1, LaunchTrivial, map[string][]float64{"launches_per_s": {1500, 1600, 1700, 1800, 1900}})
	if v := verdicts(Compare(ref, better))["launch_trivial/launches_per_s"]; v != OK {
		t.Errorf("cleanly better noisy runs: %s, want ok", v)
	}
	worse := set(1, LaunchTrivial, map[string][]float64{"launches_per_s": {100, 200, 300, 400, 500}})
	if v := verdicts(Compare(ref, worse))["launch_trivial/launches_per_s"]; v != Regressed {
		t.Errorf("cleanly worse noisy runs: %s, want regressed", v)
	}
}

func TestCompareExactMetrics(t *testing.T) {
	ref := set(1, ReplayWhatIf, map[string][]float64{"hp_antt": {1.05, 1.05}, "slo_attain_rate": {0.974}})
	same := set(1, ReplayWhatIf, map[string][]float64{"hp_antt": {1.05}, "slo_attain_rate": {0.974}})
	moved := set(1, ReplayWhatIf, map[string][]float64{"hp_antt": {1.0500001}, "slo_attain_rate": {0.974}})
	otherSeed := set(2, ReplayWhatIf, map[string][]float64{"hp_antt": {1.07}, "slo_attain_rate": {0.97}})
	if v := verdicts(Compare(ref, same)); v["replay_whatif/hp_antt"] != OK || v["replay_whatif/slo_attain_rate"] != OK {
		t.Errorf("identical virtual metrics: %v, want ok", v)
	}
	if v := verdicts(Compare(ref, moved))["replay_whatif/hp_antt"]; v != Regressed {
		t.Errorf("a virtual metric that moved: %s, want regressed", v)
	}
	if v := verdicts(Compare(ref, otherSeed))["replay_whatif/hp_antt"]; v != Skipped {
		t.Errorf("exact metric across seeds: %s, want skipped", v)
	}
}

func TestSLOAttainRateIsAbsoluteOnOverload(t *testing.T) {
	ref := set(1, LaunchOverload, map[string][]float64{"slo_attain_rate": {0.98}})
	near := set(2, LaunchOverload, map[string][]float64{"slo_attain_rate": {0.965}})
	far := set(2, LaunchOverload, map[string][]float64{"slo_attain_rate": {0.95}})
	if v := verdicts(Compare(ref, near))["launch_overload/slo_attain_rate"]; v != OK {
		t.Errorf("0.015 lower: %s, want ok (0.02 absolute)", v)
	}
	if v := verdicts(Compare(ref, far))["launch_overload/slo_attain_rate"]; v != Regressed {
		t.Errorf("0.03 lower: %s, want regressed", v)
	}
}
