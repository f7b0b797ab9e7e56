package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// mape returns the mean absolute percentage error of the model over the
// evaluation samples.
func mape(m *Model, samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		truth := s.Duration.Seconds()
		if truth <= 0 {
			continue
		}
		pred := m.Predict(s.F).Seconds()
		sum += math.Abs(pred-truth) / truth
	}
	return sum / float64(len(samples))
}

func TestTrainRecoversLinearRelation(t *testing.T) {
	// duration = 2e-9*grid + 1e-12*bytes + 5e-6
	rng := rand.New(rand.NewSource(1))
	var samples []Sample
	for i := 0; i < 100; i++ {
		g := float64(rng.Intn(1_000_000) + 100)
		by := g * 3072
		d := 2e-9*g + 1e-12*by + 5e-6
		samples = append(samples, Sample{
			F:        Features{GridSize: g, CTASize: 256, InputBytes: by, SharedBytes: 0},
			Duration: secs(d),
		})
	}
	m, err := Train(samples, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g := float64(rng.Intn(1_000_000) + 100)
		by := g * 3072
		want := 2e-9*g + 1e-12*by + 5e-6
		got := m.Predict(Features{GridSize: g, CTASize: 256, InputBytes: by}).Seconds()
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("predict(%g) = %g, want %g", g, got, want)
		}
	}
}

func TestTrainHandlesConstantFeatures(t *testing.T) {
	// CTASize and SharedBytes constant: must not blow up.
	var samples []Sample
	for i := 1; i <= 50; i++ {
		g := float64(i * 1000)
		samples = append(samples, Sample{
			F:        Features{GridSize: g, CTASize: 256, InputBytes: g * 4, SharedBytes: 2048},
			Duration: secs(1e-8 * g),
		})
	}
	m, err := Train(samples, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict(Features{GridSize: 25500, CTASize: 256, InputBytes: 25500 * 4, SharedBytes: 2048})
	want := secs(1e-8 * 25500)
	if math.Abs(got.Seconds()-want.Seconds())/want.Seconds() > 0.02 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTrainTooFewSamples(t *testing.T) {
	if _, err := Train([]Sample{{Duration: time.Second}}, 0); err == nil {
		t.Fatal("expected error for 1 sample")
	}
}

func TestPredictNeverNegative(t *testing.T) {
	samples := []Sample{
		{F: Features{GridSize: 100}, Duration: secs(1e-6)},
		{F: Features{GridSize: 200}, Duration: secs(2e-6)},
		{F: Features{GridSize: 300}, Duration: secs(3e-6)},
	}
	m, err := Train(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Predict(Features{GridSize: -1e9}); d < 0 {
		t.Fatalf("negative prediction %v", d)
	}
}

func TestRidgeShrinksWithLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var samples []Sample
	for i := 0; i < 60; i++ {
		g := float64(rng.Intn(100000) + 1)
		samples = append(samples, Sample{
			F:        Features{GridSize: g, CTASize: float64(64 * (rng.Intn(4) + 1)), InputBytes: g * 8, SharedBytes: float64(rng.Intn(4096))},
			Duration: secs(1e-8*g + rng.Float64()*1e-5),
		})
	}
	small, err := Train(samples, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Train(samples, 1e3)
	if err != nil {
		t.Fatal(err)
	}
	norm := func(m *Model) float64 {
		s := 0.0
		for _, w := range m.weights {
			s += w * w
		}
		return s
	}
	if norm(big) >= norm(small) {
		t.Fatalf("ridge penalty did not shrink weights: %g vs %g", norm(big), norm(small))
	}
}

func TestMAPEZeroOnPerfectFit(t *testing.T) {
	var samples []Sample
	for i := 1; i <= 30; i++ {
		g := float64(i * 100)
		samples = append(samples, Sample{F: Features{GridSize: g}, Duration: secs(1e-7 * g)})
	}
	m, err := Train(samples, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if e := mape(m, samples); e > 0.01 {
		t.Fatalf("MAPE on training set = %f", e)
	}
	if e := mape(m, nil); e != 0 {
		t.Fatalf("MAPE(nil) = %f", e)
	}
}

func TestNoisyDataMAPETracksNoise(t *testing.T) {
	// With multiplicative noise sigma, a correct linear model's MAPE
	// should land near E|eta| = sigma*sqrt(2/pi).
	rng := rand.New(rand.NewSource(3))
	sigma := 0.10
	gen := func(n int, seedOff int64) []Sample {
		r := rand.New(rand.NewSource(3 + seedOff))
		var out []Sample
		for i := 0; i < n; i++ {
			g := float64(r.Intn(1_000_000) + 1000)
			d := 1e-8 * g * (1 + sigma*r.NormFloat64())
			out = append(out, Sample{F: Features{GridSize: g, InputBytes: g * 4}, Duration: secs(d)})
		}
		return out
	}
	_ = rng
	train := gen(100, 0)
	test := gen(50, 99)
	m, err := Train(train, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	mape := mape(m, test)
	expected := sigma * math.Sqrt(2/math.Pi)
	if mape < expected*0.5 || mape > expected*1.8 {
		t.Fatalf("MAPE = %.4f, expected near %.4f", mape, expected)
	}
}

// Property: training on exactly-linear data yields near-zero error on any
// in-range point.
func TestPropertyLinearExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Float64()*1e-8 + 1e-10
		c := rng.Float64() * 1e-5
		var samples []Sample
		for i := 0; i < 40; i++ {
			g := float64(rng.Intn(500000) + 500)
			samples = append(samples, Sample{F: Features{GridSize: g}, Duration: secs(a*g + c)})
		}
		m, err := Train(samples, 1e-9)
		if err != nil {
			return false
		}
		g := float64(rng.Intn(500000) + 500)
		want := a*g + c
		got := m.Predict(Features{GridSize: g}).Seconds()
		return math.Abs(got-want)/want < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSingular(t *testing.T) {
	_, err := solve([][]float64{{1, 1}, {1, 1}}, []float64{1, 2})
	if err == nil {
		t.Fatal("singular system solved")
	}
}

func TestOverheadProfileMean(t *testing.T) {
	var o OverheadProfile
	if o.Mean() != 0 || o.n != 0 {
		t.Fatal("zero value not empty")
	}
	for i := 1; i <= 50; i++ {
		o.Add(time.Duration(i) * time.Microsecond)
	}
	if o.n != 50 {
		t.Fatalf("N = %d", o.n)
	}
	want := time.Duration(51*50/2/50) * time.Microsecond // 25.5 -> truncated
	got := o.Mean()
	if got < 25*time.Microsecond || got > 26*time.Microsecond {
		t.Fatalf("mean = %v, want ~%v", got, want)
	}
}
