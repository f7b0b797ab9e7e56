package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func us(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }

func TestNTT(t *testing.T) {
	r := KernelRun{Alone: us(100), Turnaround: us(250)}
	if got := r.NTT(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("NTT = %v, want 2.5", got)
	}
	if (KernelRun{}).NTT() != 0 {
		t.Fatal("zero-alone NTT should be 0")
	}
}

func TestANTT(t *testing.T) {
	runs := []KernelRun{
		{Alone: us(100), Turnaround: us(100)}, // 1.0
		{Alone: us(100), Turnaround: us(300)}, // 3.0
	}
	if got := ANTT(runs); math.Abs(got-2) > 1e-9 {
		t.Fatalf("ANTT = %v, want 2", got)
	}
	if ANTT(nil) != 0 {
		t.Fatal("empty ANTT should be 0")
	}
}

func TestTally(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs []KernelRun
		want Tally
		antt float64
		rate float64
		mean time.Duration
	}{
		{name: "empty"},
		{
			name: "a run with no baseline completes but is in no ANTT",
			runs: []KernelRun{
				{Alone: 2 * time.Second, Turnaround: 6 * time.Second, Waiting: us(50), Preemptions: 2},
				{Turnaround: time.Second, Waiting: us(10)},
			},
			want: Tally{Completed: 2, Preempted: 1, Preemptions: 2, NTTSum: 3, NTTN: 1, Turnaround: 7 * time.Second, Waiting: us(60)},
			antt: 3,
		},
		{
			name: "a margin of exactly zero is attained",
			runs: []KernelRun{{Alone: time.Second, Turnaround: time.Second, Tracked: true}},
			want: Tally{Completed: 1, NTTSum: 1, NTTN: 1, Turnaround: time.Second, Attained: 1},
			antt: 1, rate: 1,
		},
		{
			name: "a negative margin is a miss and pulls the mean down",
			runs: []KernelRun{
				{Turnaround: us(10), Tracked: true, Margin: us(30)},
				{Turnaround: us(10), Tracked: true, Margin: -us(50)},
				{Turnaround: us(10), Margin: us(999)}, // untracked: its margin means nothing
			},
			want: Tally{Completed: 3, Turnaround: us(30), Attained: 1, Missed: 1, Margin: -us(20)},
			rate: 0.5, mean: -us(10),
		},
	} {
		var got Tally
		for _, r := range tc.runs {
			got.Add(r)
		}
		if got != tc.want {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, tc.want)
		}
		if got.ANTT() != tc.antt || got.AttainRate() != tc.rate || got.MeanMargin() != tc.mean {
			t.Errorf("%s: ANTT %v, attain rate %v, mean margin %v; want %v, %v, %v",
				tc.name, got.ANTT(), got.AttainRate(), got.MeanMargin(), tc.antt, tc.rate, tc.mean)
		}
		if ANTT(tc.runs) != tc.antt {
			t.Errorf("%s: ANTT(runs) = %v, want the tally's %v", tc.name, ANTT(tc.runs), tc.antt)
		}
	}
}

func TestJain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []float64
		want   float64
	}{
		{"empty", nil, 0},
		{"all zero", []float64{0, 0, 0}, 0},
		{"equal", []float64{2.5, 2.5, 2.5, 2.5}, 1},
		{"one-hot of four", []float64{0, 7, 0, 0}, 0.25},
	} {
		if got := Jain(tc.values); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Jain = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Nearest rank: the q-quantile of n values is the ⌈qn⌉-th (here by
// rounding qn half up), so the median of ten is the fifth, not the sixth.
func TestPercentile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if p := Percentile(sorted, tc.q); p != tc.want {
			t.Errorf("p%v of 1..10 = %v, want %v", 100*tc.q, p, tc.want)
		}
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Errorf("empty = %v", p)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if p := Percentile([]time.Duration{42}, q); p != 42 {
			t.Errorf("p%v of a singleton = %v", 100*q, p)
		}
	}
}

func TestSTP(t *testing.T) {
	runs := []KernelRun{
		{Alone: us(100), Turnaround: us(100)},
		{Alone: us(100), Turnaround: us(200)},
	}
	if got := STP(runs); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("STP = %v, want 1.5", got)
	}
}

func TestSpeedupAndDegradation(t *testing.T) {
	if math.Abs(Speedup(us(1000), us(100))-10) > 1e-9 {
		t.Fatal("Speedup")
	}
	if Speedup(us(1000), 0) != 0 {
		t.Fatal("Speedup with zero improved")
	}
}

// Property: ANTT of a perfectly isolated schedule is exactly 1 and STP
// equals the run count.
func TestPropertyIsolatedRuns(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n)%20 + 1
		runs := make([]KernelRun, count)
		for i := range runs {
			d := us(float64(i+1) * 10)
			runs[i] = KernelRun{Alone: d, Turnaround: d}
		}
		return math.Abs(ANTT(runs)-1) < 1e-12 && math.Abs(STP(runs)-float64(count)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShareAccumulatorBasic(t *testing.T) {
	acc := NewShareAccumulator(us(100))
	acc.Observe(0, "a")
	acc.Observe(us(60), "b")
	acc.Observe(us(100), "b")
	acc.Observe(us(150), "")
	samples := acc.Samples(us(200))
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	w1 := samples[0].Share
	if math.Abs(w1["a"]-0.6) > 1e-9 || math.Abs(w1["b"]-0.4) > 1e-9 {
		t.Fatalf("window 1 shares %v", w1)
	}
	w2 := samples[1].Share
	if math.Abs(w2["b"]-0.5) > 1e-9 {
		t.Fatalf("window 2 shares %v", w2)
	}
}

func TestShareAccumulatorSpansWindows(t *testing.T) {
	acc := NewShareAccumulator(us(100))
	acc.Observe(0, "k")
	samples := acc.Samples(us(350)) // k occupies everything
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(samples))
	}
	for i, s := range samples {
		if math.Abs(s.Share["k"]-1) > 1e-9 {
			t.Fatalf("window %d share %v, want 1", i, s.Share)
		}
	}
}

func TestShareAccumulatorIdle(t *testing.T) {
	acc := NewShareAccumulator(us(100))
	acc.Observe(0, "")
	samples := acc.Samples(us(100))
	if len(samples) != 1 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].Share["x"] != 0 {
		t.Fatal("idle window has shares")
	}
}

func TestShareAccumulatorRejectsTimeTravel(t *testing.T) {
	acc := NewShareAccumulator(us(100))
	acc.Observe(us(50), "a")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards time")
		}
	}()
	acc.Observe(us(40), "b")
}

func TestNewShareAccumulatorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero window")
		}
	}()
	NewShareAccumulator(0)
}

func TestMeanShare(t *testing.T) {
	samples := []ShareSample{
		{Share: map[string]float64{"a": 0.5}},
		{Share: map[string]float64{"a": 1.0}},
	}
	if got := MeanShare(samples, "a"); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("MeanShare = %v", got)
	}
	if MeanShare(nil, "a") != 0 {
		t.Fatal("MeanShare(nil)")
	}
}

// Property: shares within one window never sum above 1 (+epsilon), for any
// alternating occupancy pattern.
func TestPropertyShareSumBounded(t *testing.T) {
	f := func(steps []uint8) bool {
		acc := NewShareAccumulator(us(100))
		now := time.Duration(0)
		names := []string{"", "a", "b", "c"}
		for i, s := range steps {
			acc.Observe(now, names[int(s)%len(names)])
			now += us(float64(s%50) + 1)
			_ = i
		}
		for _, sample := range acc.Samples(now + us(100)) {
			sum := 0.0
			for _, v := range sample.Share {
				sum += v
			}
			if sum > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
