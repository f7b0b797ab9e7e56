package flepruntime

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
)

// policyNames is the one table of scheduling-policy names, in the order
// help texts and errors list them. Every driver (core, flepd, replay,
// hostexec) resolves its -policy string through NewPolicy, so they accept
// exactly the same set.
var policyNames = []string{"hpf", "hpf-naive", "ffs", "fifo", "edf"}

// PolicyNames returns the accepted policy names.
func PolicyNames() []string { return append([]string(nil), policyNames...) }

// PolicyList renders the accepted names for help texts and errors:
// "hpf, hpf-naive, ffs, fifo, or edf".
func PolicyList() string {
	last := len(policyNames) - 1
	return strings.Join(policyNames[:last], ", ") + ", or " + policyNames[last]
}

// NewPolicy builds a fresh policy by name (empty means hpf). maxOverhead
// and weights parameterize FFS (zero budget = 0.10; weights map priority
// level to share weight and are only read) and are ignored by the other
// policies. Under every name it refuses a budget that is negative, NaN or
// infinite and a weight that is not finite and positive: both come from
// flags and trace headers. A caller that needs SetKernelWeight type-asserts
// *FFS.
func NewPolicy(name string, maxOverhead float64, weights map[int]float64) (Policy, error) {
	if !(maxOverhead >= 0) || math.IsInf(maxOverhead, 1) {
		return nil, fmt.Errorf("flepruntime: max overhead %v: want a finite budget of at least 0 (0 = the default 0.10)", maxOverhead)
	}
	for _, prio := range slices.Sorted(maps.Keys(weights)) {
		if w := weights[prio]; !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("flepruntime: priority %d's weight %v: want a finite positive number", prio, w)
		}
	}
	switch name {
	case "", "hpf":
		return NewHPF(), nil
	case "hpf-naive":
		h := NewHPF()
		h.OverheadAware = false
		return h, nil
	case "ffs":
		f := NewFFS(maxOverhead)
		f.weights = weights
		return f, nil
	case "fifo":
		return NewFIFO(), nil
	case "edf":
		return NewEDF(), nil
	}
	return nil, fmt.Errorf("flepruntime: unknown policy %q (want %s)", name, PolicyList())
}
