package flepruntime

// FIFO is the non-preemptive baseline policy: strict arrival order, no
// preemption ever. It models the MPS-style co-run the paper evaluates
// FLEP against (§2.1's serialization problem) inside the same runtime
// plumbing, so replay what-if runs can compare HPF/FFS against a
// non-preemptive deployment on identical traces with identical
// accounting.
type FIFO struct{}

// NewFIFO returns the non-preemptive FIFO policy.
func NewFIFO() *FIFO { return &FIFO{} }

// Before implements Policy: arrival order, nothing else.
func (FIFO) Before(*Invocation, *Invocation) bool { return false }

// ShouldPreempt implements Policy: never.
func (FIFO) ShouldPreempt(*Runtime, *Invocation, *Invocation) bool { return false }
