package flepruntime

import (
	"testing"

	"flep/internal/sim"
)

// baseCheck stands in as the runtime's dispatch hook for f. After every
// OnDispatch it holds the dispatched tenant's stored terms to the
// invocation's own O_i and W_i and the cached epoch base to a fresh
// baseEpoch; run adds the same base check after every engine step, which
// covers evictions and the epoch timer's in-place extensions.
type baseCheck struct {
	t          *testing.T
	eng        *sim.Engine
	f          *FFS
	dispatches int
}

func checkBase(t *testing.T, eng *sim.Engine, rt *Runtime) *baseCheck {
	c := &baseCheck{t: t, eng: eng, f: rt.cfg.Policy.(*FFS)}
	rt.onDispatch = c
	return c
}

func (c *baseCheck) OnDispatch(r *Runtime, v *Invocation) {
	c.f.OnDispatch(r, v)
	c.dispatches++
	i, ok := c.f.tenant(v.Kernel)
	if !ok {
		c.t.Fatalf("at %v: dispatched %s has no tenant entry", c.eng.Now(), v.Kernel)
	}
	tn := &c.f.tenants[i]
	if o, w := r.OverheadFor(v), c.f.weight(tn, v); tn.overhead != o || tn.weight != w {
		c.t.Fatalf("at %v: %s stored (O=%v, W=%v), its dispatch has (O=%v, W=%v)",
			c.eng.Now(), v.Kernel, tn.overhead, tn.weight, o, w)
	}
	c.same("dispatch of " + v.Kernel)
}

func (c *baseCheck) same(after string) {
	if got, want := c.f.base, c.f.baseEpoch(); got != want {
		c.t.Fatalf("after the %s at %v: cached epoch base %v, a fresh sum over %d tenants gives %v",
			after, c.eng.Now(), got, len(c.f.tenants), want)
	}
}

// run steps the engine to quiescence and reports how many tenants were
// evicted on the way, so a scene can show that it churned.
func (c *baseCheck) run() (evictions int) {
	for steps := 0; ; steps++ {
		tenants := len(c.f.tenants)
		if !c.eng.Step() {
			return evictions
		}
		if steps > seededMixMaxSteps {
			c.t.Fatal("runaway scene")
		}
		c.same("step")
		if len(c.f.tenants) < tenants {
			evictions++
		}
	}
}

// TestFFSEpochBaseMatchesRecomputation: FFS recomputes ΣO_i/(max_overhead·ΣW_i)
// only when a term of the sum changes (a tenant's first dispatch, a
// dispatch with another overhead or weight, an eviction). Over the seeded
// mixes and a churn scene the cached base must equal a fresh recompute
// after every dispatch and every step: an eviction, or a changed O_i or W_i,
// that no longer invalidates the cache leaves a stale base here.
func TestFFSEpochBaseMatchesRecomputation(t *testing.T) {
	t.Run("seeded-mix", func(t *testing.T) {
		for _, spatial := range []bool{false, true} {
			for seed := int64(1); seed <= seededMixSeeds; seed++ {
				eng, rt, _ := seededMix(t, "ffs", spatial, seed)
				c := checkBase(t, eng, rt)
				if evictions := c.run(); c.dispatches == 0 || evictions == 0 {
					t.Fatalf("spatial=%v seed=%d: %d dispatches, %d evictions", spatial, seed, c.dispatches, evictions)
				}
			}
		}
	})
	t.Run("churn", func(t *testing.T) {
		ffs := NewFFS(0.10)
		eng, rt := newRT(ffs, false)
		c := checkBase(t, eng, rt)
		submit := func(at float64, v *Invocation) {
			eng.At(us(at), func() {
				if err := rt.Submit(v); err != nil {
					t.Fatal(err)
				}
			})
		}
		// a and b overlap from the start; c arrives late and departs;
		// b's share is re-requested mid-run; a is relaunched while still
		// present at another L (its O_i moves), then at another priority
		// (its W_i moves); d arrives after a and c have gone.
		submit(0, inv("a", 1, 24000, us(20), 2))
		submit(0, inv("b", 2, 30000, us(30), 4))
		submit(900, inv("c", 3, 6000, us(10), 1))
		eng.At(us(1500), func() { ffs.SetKernelWeight("b", 3) })
		submit(2000, inv("a", 1, 12000, us(20), 8))
		submit(2500, inv("a", 3, 12000, us(20), 8))
		submit(20000, inv("d", 2, 6000, us(40), 2))
		if evictions := c.run(); evictions != 4 || c.dispatches < 10 {
			t.Fatalf("scene did not churn: %d dispatches, %d evictions (want 4)", c.dispatches, evictions)
		}
		if len(ffs.tenants) != 0 || ffs.base != 0 {
			t.Fatalf("after every tenant departed: %d tenants, base %v", len(ffs.tenants), ffs.base)
		}
	})
}
