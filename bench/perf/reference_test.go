package perf

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSpeedTrackInterpolates(t *testing.T) {
	track := speedTrack{{at: 100 * time.Millisecond, speed: 1.0}, {at: 300 * time.Millisecond, speed: 0.5}}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 1.0},                       // before the first sample
		{100 * time.Millisecond, 1.0},  // on a sample
		{200 * time.Millisecond, 0.75}, // half way
		{250 * time.Millisecond, 0.625},
		{time.Second, 0.5}, // after the last sample
	} {
		if got := track.at(c.at); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("speed at %v = %v, want %v", c.at, got, c.want)
		}
	}
	if got := (speedTrack{}).at(time.Second); got != 1 {
		t.Errorf("an empty track reads %v, want 1", got)
	}
}

// A host that runs at half speed halves the reference and the system
// alike; the figures at nominal speed must not move.
func TestWindowStatsCancelHostSpeed(t *testing.T) {
	phases := timedPhases(20 * time.Second)
	run := func(hostSpeed func(window int) float64) figures {
		stats := make([]phaseStats, len(phases))
		window := 0
		for i, p := range phases {
			sp := hostSpeed(window)
			switch {
			case p.ref:
				stats[i].completed = int64(1000 * sp * p.dur.Seconds())
			case p.record:
				n := int(5000 * sp * p.dur.Seconds())
				stats[i].completed = int64(n)
				lat := int64(float64(200*time.Microsecond) / sp)
				stats[i].latencies = make([]int64, n)
				for j := range stats[i].latencies {
					stats[i].latencies[j] = lat
				}
				stats[i].clientP50 = []float64{float64(lat) / 1e3}
				stats[i].cpu = time.Duration(float64(n) * float64(100*time.Microsecond) / sp)
				window++
			}
		}
		at, _, _, _, supported := windowStats(phases, stats, 1000)
		if supported != timedWindows {
			t.Fatalf("%d of %d windows support a p99", supported, timedWindows)
		}
		return at
	}
	quiet := run(func(int) float64 { return 1 })
	// Half speed for whole stretches of the run, as the shared host does.
	rough := run(func(w int) float64 {
		if w%10 < 6 {
			return 0.5
		}
		return 1
	})
	for _, c := range []struct {
		name         string
		quiet, rough float64
		want         float64
	}{
		{"launches_per_s", quiet.rate, rough.rate, 5000},
		{"launch_p50_us", quiet.p50, rough.p50, 200},
		{"launch_p99_us", quiet.p99, rough.p99, 200},
		{"cpu_us_per_launch", quiet.cpu, rough.cpu, 100},
	} {
		if math.Abs(c.quiet-c.want)/c.want > 0.01 || math.Abs(c.rough-c.want)/c.want > 0.01 {
			t.Errorf("%s: quiet host %v, rough host %v, want %v on both", c.name, c.quiet, c.rough, c.want)
		}
	}
}

func TestReferenceServerAnswers(t *testing.T) {
	ref, err := buildReference(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	post := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		ref.front.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/launch", bytes.NewReader(body)))
		return w
	}
	if w := post(refBody); w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"benchmark":"REF"`)) {
		t.Errorf("reference request: status %d body %q", w.Code, w.Body)
	}
	if w := post([]byte(`{"work":-1}`)); w.Code != http.StatusBadRequest {
		t.Errorf("negative work: status %d, want 400", w.Code)
	}
}
