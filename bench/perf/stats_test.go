package perf

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := Quantile(s, c.q); !near(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = Quartiles([]float64{1, 2, 3, 4})
	if !near(q1, 1.25) || !near(q3, 3.75) {
		t.Errorf("quartiles of 1..4 = %v, %v, want 1.25, 3.75", q1, q3)
	}
	q1, q3 = Quartiles([]float64{5, 7})
	if !near(q1, 4.5) || !near(q3, 7.5) {
		t.Errorf("quartiles of {5,7} = %v, %v, want 4.5, 7.5", q1, q3)
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := Spread([]float64{42}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := Spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2}
	if got := Median(in); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median reordered its input: %v", in)
	}
}
