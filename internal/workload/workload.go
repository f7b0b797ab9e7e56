// Package workload builds the co-run scenarios of the paper's evaluation:
// priority pairs (Figure 8/9), equal-priority pairs (Figure 10/11),
// triplets (Figure 12), closed-loop fairness pairs (Figure 13/14), and
// spatial-preemption pairs (Figure 15/16).
package workload

import (
	"time"

	"flep/internal/kernels"
)

// Item is one client submission in a scenario.
type Item struct {
	Bench    *kernels.Benchmark
	Class    kernels.InputClass
	Priority int
	// At is the submission (invocation) time.
	At time.Duration
	// Loop marks a closed-loop client: it resubmits the same kernel
	// immediately after each completion until the scenario horizon.
	Loop bool
	// TasksOverride replaces the input's task count when positive
	// (Figure 16 uses a 16-CTA guest).
	TasksOverride int
}

// Scenario is a named set of submissions.
type Scenario struct {
	Name  string
	Items []Item
	// Horizon stops a closed-loop scenario, which needs a positive one; zero
	// means run to drain.
	Horizon time.Duration
}

// Eps is the paper's "immediately after": the delay between the low- and
// high-priority invocations in pair scenarios.
const Eps = 10 * time.Microsecond

// PriorityPair builds the Figure 8 scenario A_B: B runs the large input at
// low priority; A is invoked with the small input at high priority, delay
// after B (delay 0 means immediately, i.e. Eps).
func PriorityPair(a, b *kernels.Benchmark, delay time.Duration) Scenario {
	if delay <= 0 {
		delay = Eps
	}
	return Scenario{
		Name: a.Name + "_" + b.Name,
		Items: []Item{
			{Bench: b, Class: kernels.Large, Priority: 1, At: 0},
			{Bench: a, Class: kernels.Small, Priority: 2, At: delay},
		},
	}
}

// EqualPair builds the Figure 10 scenario: the long kernel (large input)
// first, then the short kernel (small input), same priority.
func EqualPair(short, long *kernels.Benchmark) Scenario {
	return Scenario{
		Name: short.Name + "_" + long.Name,
		Items: []Item{
			{Bench: long, Class: kernels.Large, Priority: 1, At: 0},
			{Bench: short, Class: kernels.Small, Priority: 1, At: Eps},
		},
	}
}

// Triplet builds the Figure 12 scenario A_B_C: A on the large input,
// followed by B and C on small inputs, all equal priority.
func Triplet(a, b, c *kernels.Benchmark) Scenario {
	return Scenario{
		Name: a.Name + "_" + b.Name + "_" + c.Name,
		Items: []Item{
			{Bench: a, Class: kernels.Large, Priority: 1, At: 0},
			{Bench: b, Class: kernels.Small, Priority: 1, At: Eps},
			{Bench: c, Class: kernels.Small, Priority: 1, At: 2 * Eps},
		},
	}
}

// FairPair builds the Figure 13/14 scenario: both benchmarks loop forever
// on small inputs; priorities encode the 2:1 weight ratio.
func FairPair(high, low *kernels.Benchmark, horizon time.Duration) Scenario {
	return Scenario{
		Name:    high.Name + "_" + low.Name + "_fair",
		Horizon: horizon,
		Items: []Item{
			{Bench: high, Class: kernels.Small, Priority: 2, At: 0, Loop: true},
			{Bench: low, Class: kernels.Small, Priority: 1, At: Eps, Loop: true},
		},
	}
}

// SpatialPair builds the Figure 15 scenario: the low-priority kernel on the
// large input, then the high-priority kernel on the trivial input (too few
// CTAs to need the whole GPU).
func SpatialPair(high, low *kernels.Benchmark) Scenario {
	return Scenario{
		Name: high.Name + "_" + low.Name + "_spatial",
		Items: []Item{
			{Bench: low, Class: kernels.Large, Priority: 1, At: 0},
			{Bench: high, Class: kernels.Trivial, Priority: 2, At: Eps},
		},
	}
}

// PriorityPairs enumerates the paper's 28 Figure 8 co-runs: low-priority ∈
// {CFD, NN, PF, PL} on large inputs × each other benchmark as the
// high-priority small-input workload.
func PriorityPairs() []Scenario {
	lows := pick("CFD", "NN", "PF", "PL")
	var out []Scenario
	for _, low := range lows {
		for _, high := range kernels.All() {
			if high.Name == low.Name {
				continue
			}
			out = append(out, PriorityPair(high, low, 0))
		}
	}
	return out
}

// EqualPairs enumerates the paper's 28 Figure 10 co-runs: short ∈
// {MD, MM, SPMV, VA} on small inputs × each other benchmark on large.
func EqualPairs() []Scenario {
	shorts := pick("MD", "MM", "SPMV", "VA")
	var out []Scenario
	for _, s := range shorts {
		for _, l := range kernels.All() {
			if l.Name == s.Name {
				continue
			}
			out = append(out, EqualPair(s, l))
		}
	}
	return out
}

// Triplets enumerates 28 deterministic three-kernel co-runs (the paper
// randomly chooses 28; we derive them from a fixed enumeration so runs are
// reproducible). The paper's highlighted VA_SPMV_MM triplet is included.
func Triplets() []Scenario {
	bs := kernels.All()
	var out []Scenario
	// Walk ordered triples in a fixed pattern until 28 are collected,
	// seeding with the paper's example.
	va, _ := kernels.ByName("VA")
	spmv, _ := kernels.ByName("SPMV")
	mm, _ := kernels.ByName("MM")
	out = append(out, Triplet(va, spmv, mm))
	for i := 0; len(out) < 28; i++ {
		a := bs[(i*3)%len(bs)]
		b := bs[(i*5+1)%len(bs)]
		c := bs[(i*7+2)%len(bs)]
		if a == b || b == c || a == c {
			continue
		}
		if a == va && b == spmv && c == mm {
			continue
		}
		out = append(out, Triplet(a, b, c))
	}
	return out
}

// FairPairs enumerates the FFS co-runs over the same pairs as the HPF
// experiments (Figure 13/14 uses "the same co-run pairs").
func FairPairs(horizon time.Duration) []Scenario {
	lows := pick("CFD", "NN", "PF", "PL")
	var out []Scenario
	for _, low := range lows {
		for _, high := range kernels.All() {
			if high.Name == low.Name {
				continue
			}
			out = append(out, FairPair(high, low, horizon))
		}
	}
	return out
}

func pick(names ...string) []*kernels.Benchmark {
	out := make([]*kernels.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := kernels.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}
