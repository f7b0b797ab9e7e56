package perfmodel

import "time"

// OverheadProfile estimates a kernel's preemption overhead the way the
// paper does (§4.2): "we profile the overhead of 50 runs with different
// inputs and use the average as an estimate".
type OverheadProfile struct {
	total time.Duration
	n     int
}

// DefaultOverheadRuns is the paper's profiling run count.
const DefaultOverheadRuns = 50

// Add records one profiled preemption overhead.
func (o *OverheadProfile) Add(d time.Duration) {
	o.total += d
	o.n++
}

// Mean returns the average overhead, or zero before any run is recorded.
func (o *OverheadProfile) Mean() time.Duration {
	if o.n == 0 {
		return 0
	}
	return o.total / time.Duration(o.n)
}
