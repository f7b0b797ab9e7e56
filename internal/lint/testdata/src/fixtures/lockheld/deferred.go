package lockheld

import "sync"

// Dispatcher runs a caller-owned callback on the way out.
type Dispatcher struct {
	mu sync.Mutex
	cb func()
}

// UnderLock defers the callback after the Unlock: deferred calls run in
// reverse order, so cb runs first at return, with d.mu still held.
func (d *Dispatcher) UnderLock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.cb() // want `lockheld invoking callback cb while holding d.mu`
}

// AfterUnlock defers the callback before taking the lock, so it runs
// last, after the deferred Unlock.
func (d *Dispatcher) AfterUnlock() {
	defer d.cb()
	d.mu.Lock()
	defer d.mu.Unlock()
}
