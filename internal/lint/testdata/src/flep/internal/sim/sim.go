// Package sim is a fixture stub of the engine: just enough surface for
// the looppurity analyzer to recognize Schedule/At roots and the typed
// ScheduleFire/AtFire handler roots (it matches
// by receiver type name and package path suffix, so this stub stands
// in for the real engine under testdata).
package sim

// Engine mirrors the real engine's scheduling surface.
type Engine struct{}

// Schedule enqueues fn after delay virtual ticks.
func (e *Engine) Schedule(delay int64, fn func()) {}

// At enqueues fn at an absolute virtual time.
func (e *Engine) At(when int64, fn func()) {}

// Handler mirrors the real engine's typed-event receiver.
type Handler interface{ Fire(kind, arg int) }

// ScheduleFire enqueues h.Fire(kind, arg) after delay virtual ticks.
func (e *Engine) ScheduleFire(delay int64, h Handler, kind, arg int) {}

// AtFire enqueues h.Fire(kind, arg) at an absolute virtual time.
func (e *Engine) AtFire(when int64, h Handler, kind, arg int) {}
