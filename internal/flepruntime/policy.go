package flepruntime

import (
	"fmt"
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
// policies. A caller that needs SetKernelWeight type-asserts *FFS.
func NewPolicy(name string, maxOverhead float64, weights map[int]float64) (Policy, error) {
	switch name {
	case "", "hpf":
		return NewHPF(), nil
	case "hpf-naive":
		h := NewHPF()
		h.OverheadAware = false
		return h, nil
	case "ffs":
		f := NewFFS(maxOverhead)
		f.Weights = weights
		return f, nil
	case "fifo":
		return NewFIFO(), nil
	case "edf":
		return NewEDF(), nil
	}
	return nil, fmt.Errorf("flepruntime: unknown policy %q (want %s)", name, PolicyList())
}
