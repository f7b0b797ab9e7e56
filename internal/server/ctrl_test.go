package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestCtrlRunsExactlyOnceOrNever races ctrl against Shutdown on fresh
// servers. Handlers edit the dependency table through ctrl, so its answer
// must be exact: nil means the work ran exactly once, and ErrStopped means
// it never ran (and, the loop having exited, never will).
func TestCtrlRunsExactlyOnceOrNever(t *testing.T) {
	sys := testSystem(t)
	var ran, stopped int
	for i := 0; i < 300; i++ {
		s, err := NewWithSystem(sys.Clone(), Config{Benchmarks: []string{"VA"}})
		if err != nil {
			t.Fatal(err)
		}
		var runs atomic.Int32
		work := func(*loopState) { runs.Add(1) }
		errc := make(chan error, 1)
		go func() { errc <- s.ctrl(work) }()
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		err = <-errc
		n := runs.Load()
		switch {
		case err == nil && n == 1:
			ran++
		case errors.Is(err, ErrStopped) && n == 0:
			stopped++
		default:
			t.Fatalf("round %d: ctrl returned %v after running %d times", i, err, n)
		}
		if err := s.ctrl(work); !errors.Is(err, ErrStopped) || runs.Load() != n {
			t.Fatalf("round %d: ctrl after Shutdown returned %v and ran %d times", i, err, runs.Load()-n)
		}
	}
	t.Logf("raced: ran %d, stopped before running %d", ran, stopped)
}
