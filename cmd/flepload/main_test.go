package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"flep/internal/metrics"
	"flep/internal/model"
)

func TestParseMixNormalizes(t *testing.T) {
	mix, err := parseMix("1=7,2=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 {
		t.Fatalf("mix: %v", mix)
	}
	if mix[0].share != 0.7 || mix[1].share != 0.3 {
		t.Fatalf("shares not normalized: %v", mix)
	}
	if _, err := parseMix(""); err == nil {
		t.Fatal("accepted empty mix")
	}
	if _, err := parseMix("x=1"); err == nil {
		t.Fatal("accepted malformed mix")
	}
}

// A priority is an integer and a share a finite number >= 0, each the
// whole of its text. A numeric prefix would pick the wrong priority; a NaN
// or Inf share makes the normalized shares NaN, and a sum past the largest
// float makes them all 0, either of which sends every launch to the last
// priority of the mix.
func TestParseMixIsStrict(t *testing.T) {
	for _, bad := range []string{"0x10=1", "1x=1", "1=NaN,2=1", "1=Inf,2=1", "1=-1,2=1", "1=0.5x", "1=1e308,2=1e308"} {
		if mix, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) = %v, want an error", bad, mix)
		}
	}
	mix, err := parseMix("1=0,2=1")
	if err != nil || len(mix) != 2 || mix[0].share != 0 || mix[1].share != 1 {
		t.Fatalf("parseMix(1=0,2=1) = %v, %v", mix, err)
	}
}

// The Retry-After hint is integer seconds; any other text, or a number
// that would overflow a time.Duration into a negative delay that skips
// every sleep, leaves the 50 ms default in place.
func TestRetryAfterParsesDelaySeconds(t *testing.T) {
	cases := []struct {
		hint string
		base time.Duration
	}{
		{"2", 100 * time.Millisecond},
		{"4294967295", 4294967295 * time.Second / 20},
		{"", 50 * time.Millisecond},
		{"0", 50 * time.Millisecond},
		{"Inf", 50 * time.Millisecond},
		{"1e12", 50 * time.Millisecond},
		{"4294967296", 50 * time.Millisecond},
		{"2abc", 50 * time.Millisecond},
		{"-1", 50 * time.Millisecond},
		{"+2", 50 * time.Millisecond},
		{"1.5", 50 * time.Millisecond},
	}
	for _, c := range cases {
		resp := &http.Response{Header: http.Header{"Retry-After": {c.hint}}}
		got := retryAfter(resp, jitterSource(1, 0))
		want := time.Duration((0.5 + jitterSource(1, 0).Float64()) * float64(c.base))
		if got != want {
			t.Errorf("Retry-After %q: delay %v, want %v", c.hint, got, want)
		}
	}
}

func TestPickPriorityCoversMix(t *testing.T) {
	mix, _ := parseMix("1=0.5,2=0.5")
	if p := pickPriority(mix, 0.0); p != 1 {
		t.Fatalf("u=0: %d", p)
	}
	if p := pickPriority(mix, 0.75); p != 2 {
		t.Fatalf("u=0.75: %d", p)
	}
	if p := pickPriority(mix, 0.999999); p != 2 {
		t.Fatalf("u→1: %d", p)
	}
}

// writeGroups is the one per-key breakdown behind "per node", "per
// device" and the node-labeled metrics deltas; the table pins its output
// for each source.
func TestWriteGroups(t *testing.T) {
	run := func(ntt time.Duration, preemptions int) metrics.KernelRun {
		return metrics.KernelRun{Alone: time.Microsecond, Turnaround: ntt * time.Microsecond, Preemptions: preemptions}
	}
	samples := []sample{
		{device: 0, node: "n0", KernelRun: run(1, 1)},
		{device: 0, node: "n0", KernelRun: run(2, 0)},
		{device: 2, node: "n1", KernelRun: run(3, 2)},
		{device: 10, node: "n1", KernelRun: run(6, 0)},
	}
	byNode := func(s sample) string { return "node " + s.node }
	byDevice := func(s sample) string { return fmt.Sprintf("device %d", s.device) }
	for _, tc := range []struct {
		name   string
		title  string
		groups map[string]*metrics.Tally
		want   string
	}{
		{"samples by node", "per node", groupSamples(samples, byNode), "" +
			"per node:\n" +
			"  node n0:     ok=2 (50.0%)  throughput 1.0 launches/s  ANTT 1.500  preemptions=1\n" +
			"  node n1:     ok=2 (50.0%)  throughput 1.0 launches/s  ANTT 4.500  preemptions=2\n"},
		{"samples by device, numeric order", "per device", groupSamples(samples, byDevice), "" +
			"per device:\n" +
			"  device 0:    ok=2 (50.0%)  throughput 1.0 launches/s  ANTT 1.500  preemptions=1\n" +
			"  device 2:    ok=1 (25.0%)  throughput 0.5 launches/s  ANTT 3.000  preemptions=2\n" +
			"  device 10:   ok=1 (25.0%)  throughput 0.5 launches/s  ANTT 6.000  preemptions=0\n"},
		{"metrics deltas, ANTT over the NTT terms only", "per node (node-labeled metrics deltas)", map[string]*metrics.Tally{
			"node a": {Completed: 30, NTTSum: 40, NTTN: 20, Preemptions: 7},
			"node b": {Completed: 10},
		}, "" +
			"per node (node-labeled metrics deltas):\n" +
			"  node a:      ok=30 (75.0%)  throughput 15.0 launches/s  ANTT 2.000  preemptions=7\n" +
			"  node b:      ok=10 (25.0%)  throughput 5.0 launches/s  ANTT 0.000  preemptions=0\n"},
		{"one key is no split", "per device", groupSamples(samples[:2], byDevice), ""},
		{"no samples", "per node", groupSamples(nil, byNode), ""},
	} {
		var buf bytes.Buffer
		writeGroups(&buf, tc.title, tc.groups, 2*time.Second)
		if got := buf.String(); got != tc.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// modelLine is the one "per model" line; the table pins its fields and
// format for each optional part.
func TestModelLine(t *testing.T) {
	run := func(ntt time.Duration, margin time.Duration) metrics.KernelRun {
		return metrics.KernelRun{Alone: time.Microsecond, Turnaround: ntt * time.Microsecond, Margin: margin, Tracked: margin != 0}
	}
	full := &modelAgg{stagesShed: 2, makespans: []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}}
	full.Started, full.StagesCanceled = 5, 4
	for i := 0; i < 3; i++ {
		full.Close(true, 0)
	}
	full.Close(false, 0)
	full.Close(false, 0)
	for _, r := range []metrics.KernelRun{run(1, 0), run(2, time.Millisecond), run(3, -time.Millisecond), run(6, 5)} {
		full.Stages.Add(r)
	}
	noBaseline := &modelAgg{}
	noBaseline.Started = 1
	noBaseline.Close(false, 0)
	noBaseline.Stages.Add(metrics.KernelRun{Turnaround: time.Millisecond})
	for _, tc := range []struct {
		name string
		agg  *modelAgg
		want string
	}{
		{"resnet", full, "  model resnet     graphs=5 completed=3 canceled=2  stages ok=4 canceled=4 shed=2" +
			"  ANTT 3.000  slo=2/3  makespan p50=2ms p99=3ms"},
		{"a-long-model-name", noBaseline, "  model a-long-model-name graphs=1 completed=0 canceled=1  stages ok=1 canceled=0 shed=0"},
		{"idle", &modelAgg{}, "  model idle       graphs=0 completed=0 canceled=0  stages ok=0 canceled=0 shed=0"},
	} {
		if got := modelLine(tc.name, tc.agg); got != tc.want {
			t.Errorf("%s:\ngot:  %q\nwant: %q", tc.name, got, tc.want)
		}
	}
}

// Every answer is filed in one place: a plain launch and a graph's stages
// count a 200 as ok, a 504 as a timeout and a transport or decode failure
// (status 0) as an error. A graph's stages count a 409 as canceled and a
// 429 as shed; to a plain launch both are errors, the 429 once its
// retries run out.
func TestAnswersAreFiledOnce(t *testing.T) {
	diamond, err := model.ByName("diamond")
	if err != nil {
		t.Fatal(err)
	}
	stages := int64(len(diamond.Stages))
	// The 429 row's retries wait the 50 ms default each (the stub's hint is
	// not delay-seconds); count the waits instead of sleeping them.
	var waits atomic.Int64
	sleep = func(time.Duration) { waits.Add(1) }
	t.Cleanup(func() { sleep = time.Sleep })
	type tally struct{ ok, timeouts, errors, shed, canceled, retries int64 }
	for _, tc := range []struct {
		status       int // 0: a 200 whose body does not decode
		plain, graph tally
	}{
		{http.StatusOK, tally{ok: 1}, tally{ok: stages}},
		{http.StatusConflict, tally{errors: 1}, tally{canceled: stages}},
		{http.StatusTooManyRequests, tally{errors: 1, retries: maxRetries}, tally{shed: stages}},
		{http.StatusGatewayTimeout, tally{timeouts: 1}, tally{timeouts: stages}},
		{0, tally{errors: 1}, tally{errors: stages}},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.status == 0 {
				fmt.Fprint(w, "{")
				return
			}
			w.Header().Set("Retry-After", "0.00001")
			w.WriteHeader(tc.status)
			fmt.Fprint(w, `{"id":1}`)
		}))
		cc := clientConfig{addr: ts.URL, id: "c", benches: []string{"VA"}, n: 1, mix: []prioShare{{1, 1}}, rng: rand.New(rand.NewSource(1)), jitter: jitterSource(1, 0)}
		for _, graph := range []bool{false, true} {
			st := &stats{models: map[string]*modelAgg{}}
			want, agg := tc.plain, &modelAgg{}
			waits.Store(0)
			if graph {
				want = tc.graph
				runGraphClient(ts.Client(), st, cc, modelSpec{name: "diamond", graph: diamond})
				agg = st.models["diamond"]
			} else {
				runClient(ts.Client(), st, cc)
			}
			got := tally{int64(len(st.samples)), st.timeouts, st.errors, agg.stagesShed, agg.StagesCanceled, st.retries.Load()}
			if got != want || waits.Load() != want.retries {
				t.Errorf("status %d, graph %v: filed %+v after %d waits, want %+v", tc.status, graph, got, waits.Load(), want)
			}
		}
		ts.Close()
	}
}

// A refused client's retry delay is jittered from its own seeded source:
// one seed repeats its delays, two seeds differ, and every delay stays
// within half to one and a half of a twentieth of the server's hint. A
// fixed fraction sent every client of one refused batch back at once.
func TestRetryJitterIsSeeded(t *testing.T) {
	resp := &http.Response{Header: http.Header{"Retry-After": {"2"}}}
	delays := func(seed int64) []time.Duration {
		jitter := jitterSource(seed, 3)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = retryAfter(resp, jitter)
			if out[i] < 50*time.Millisecond || out[i] >= 150*time.Millisecond {
				t.Fatalf("seed %d: delay %v outside [50ms, 150ms) for a 2 s hint", seed, out[i])
			}
		}
		return out
	}
	a, again, b := delays(1), delays(1), delays(2)
	if !slices.Equal(a, again) {
		t.Errorf("seed 1 gave %v, then %v", a, again)
	}
	if slices.Equal(a, b) {
		t.Errorf("seeds 1 and 2 both gave %v", a)
	}
	if slices.Min(a) == slices.Max(a) {
		t.Errorf("seed 1 gave one delay eight times: %v", a)
	}
}
