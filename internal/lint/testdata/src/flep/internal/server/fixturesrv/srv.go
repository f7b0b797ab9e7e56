// Package fixturesrv exercises the looppurity analyzer's server
// roots: methods named loop/admit/complete run on the loop goroutine, as
// does every function value passed to ctrl/onLoop, and a mutex they
// share with handler-side code can stall the loop.
package fixturesrv

import (
	"sync"
	"time"
)

// Server has one mutex shared with handlers and one private to the
// loop.
type Server struct {
	mu     sync.Mutex // also taken by Snapshot (handler side)
	loopMu sync.Mutex // taken only on the loop goroutine
	n      int
}

// loop is rooted by name in internal/server packages.
func (s *Server) loop() {
	s.mu.Lock() // want `sharedlock s\.mu\.Lock`
	s.n++
	s.mu.Unlock()

	s.loopMu.Lock() // loop-private: clean
	s.n++
	s.loopMu.Unlock()
}

// Snapshot runs on handler goroutines and takes the shared mutex,
// which is what makes s.mu contended from the loop's point of view.
func (s *Server) Snapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// ctrl hands f to the loop goroutine. It runs on the handler side, so
// its own body is not a root.
func (s *Server) ctrl(f func()) {
	done := make(chan struct{})
	go func() { f(); close(done) }()
	<-done
}

// onLoop is ctrl's read-side twin.
func (s *Server) onLoop(f func()) { s.ctrl(f) }

// Admit is handler-side; the literal it passes to ctrl runs on the loop,
// and so does everything that literal calls.
func (s *Server) Admit() {
	s.ctrl(func() { s.park() })
}

func (s *Server) park() {
	time.Sleep(time.Millisecond) // want `block time\.Sleep in park`
}

// Count passes a method value to onLoop: the method is rooted by name.
func (s *Server) Count() {
	s.onLoop(s.count)
}

func (s *Server) count() {
	time.Sleep(time.Millisecond) // want `block time\.Sleep in count`
}

// Idle sleeps on the handler side only: clean.
func (s *Server) Idle() {
	time.Sleep(time.Millisecond)
}
