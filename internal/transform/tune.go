package transform

// DefaultOverheadThreshold is the paper's tuning target: FLEP picks the
// smallest amortizing factor whose runtime overhead stays below 4%.
const DefaultOverheadThreshold = 0.04

// DefaultMaxAmortize bounds the offline search. The paper's largest tuned
// factor is 200 (VA); 4096 leaves generous headroom for heavier polls.
const DefaultMaxAmortize = 4096

// OverheadFunc measures the relative runtime overhead of the transformed
// kernel at amortizing factor L against the original kernel (e.g. 0.025 for
// 2.5%). Implementations typically run both forms on the GPU model.
type OverheadFunc func(L int) float64

// Autotune finds the smallest amortizing factor L in [1, maxL] whose
// measured overhead is below threshold, reproducing the paper's offline
// tuning ("trying different values from small to large"). Overhead is
// monotonically non-increasing in L apart from measurement noise, so the
// search doubles L until the constraint holds and then binary-searches the
// last interval. If no L satisfies the constraint, the L with the smallest
// measured overhead is returned along with that overhead and ok=false.
func Autotune(measure OverheadFunc, threshold float64, maxL int) (l int, overhead float64, ok bool) {
	if measure == nil {
		panic("transform: Autotune with nil measure func")
	}
	if threshold <= 0 {
		threshold = DefaultOverheadThreshold
	}
	if maxL <= 0 {
		maxL = DefaultMaxAmortize
	}

	bestL, bestOv := 1, measure(1)
	if bestOv < threshold {
		return 1, bestOv, true
	}
	// Exponential probe for the first satisfying L.
	lo, hi := 1, 2
	var hiOv float64
	for {
		if hi > maxL {
			hi = maxL
		}
		hiOv = measure(hi)
		if hiOv < bestOv {
			bestL, bestOv = hi, hiOv
		}
		if hiOv < threshold || hi == maxL {
			break
		}
		lo = hi
		hi *= 2
	}
	if hiOv >= threshold {
		return bestL, bestOv, false
	}
	// Binary search in (lo, hi] for the smallest satisfying L.
	for lo+1 < hi {
		mid := (lo + hi) / 2
		ov := measure(mid)
		if ov < threshold {
			hi = mid
			hiOv = ov
		} else {
			lo = mid
		}
	}
	return hi, hiOv, true
}
