package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestFleetGraphStagesShareAShard checks that every stage of a graph lands
// on one shard, where the graph's pending-dependency state lives, for a
// named client and for an anonymous one. A stage sent anywhere else would
// wait for a prerequisite its shard never saw and time out.
func TestFleetGraphStagesShareAShard(t *testing.T) {
	_, ts := pinnedFleet(t, Config{})
	for _, client := range []string{"grapher", ""} {
		for g := 0; g < 4; g++ {
			devs := map[int]bool{}
			prev := ""
			for _, stage := range []string{"a", "b", "c"} {
				req := LaunchRequest{Client: client, Benchmark: "VA", Class: "trivial", TimeoutMS: 2000,
					Graph: fmt.Sprintf("g%d", g), Stages: 3, Stage: stage}
				if prev != "" {
					req.After = []string{prev}
				}
				code, res := launch(t, ts.URL, req)
				if code != http.StatusOK {
					t.Fatalf("client %q graph g%d stage %s: code %d (%+v)", client, g, stage, code, res)
				}
				devs[res.Device] = true
				prev = stage
			}
			if len(devs) != 1 {
				t.Fatalf("client %q graph g%d ran on devices %v, want one", client, g, devs)
			}
		}
	}
}

// TestFleetNamedClientStaysOnOneShard checks that a named client's launches
// all land on one shard: sequential ones between other clients' launches,
// and a concurrent burst of a fresh client's first launches, some of them
// bounced off the one-slot queues.
func TestFleetNamedClientStaysOnOneShard(t *testing.T) {
	_, ts := pinnedFleet(t, Config{QueueDepth: 1})
	devs := map[int]bool{}
	for i := 0; i < 8; i++ {
		code, res := launch(t, ts.URL, LaunchRequest{Client: "alice", Benchmark: "VA", Class: "trivial"})
		if code != http.StatusOK {
			t.Fatalf("alice launch %d: code %d (%+v)", i, code, res)
		}
		devs[res.Device] = true
		if code, res := launch(t, ts.URL, LaunchRequest{Client: fmt.Sprintf("other%d", i), Benchmark: "VA", Class: "trivial"}); code != http.StatusOK {
			t.Fatalf("other%d: code %d (%+v)", i, code, res)
		}
	}
	if len(devs) != 1 {
		t.Fatalf("alice's launches ran on devices %v, want one", devs)
	}

	const burst = 16
	ran := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, res := launch(t, ts.URL, LaunchRequest{Client: "burst", Benchmark: "VA", Class: "trivial"}); code == http.StatusOK {
				ran <- res.Device
			}
		}()
	}
	wg.Wait()
	close(ran)
	devs = map[int]bool{}
	for dev := range ran {
		devs[dev] = true
	}
	if len(devs) != 1 {
		t.Fatalf("the burst's accepted launches ran on devices %v, want exactly one", devs)
	}
}

// TestLoadCountsAQueuedLaunchOnce: the ledger counts a launch as enqueued
// before the loop receives it, so a paused shard holding one queued launch
// has a load of one.
func TestLoadCountsAQueuedLaunchOnce(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	q := mkLaunchReq(s, "c", 0)
	if err := s.tryEnqueue(q); err != nil {
		t.Fatal(err)
	}
	s.countEnqueued(q)
	if got := s.Load(); got != 1 {
		t.Fatalf("Load() = %d with one launch queued, want 1", got)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if res := <-q.done; res.Err != "" {
		t.Fatal(res.Err)
	}
	if got := s.Load(); got != 0 {
		t.Fatalf("Load() = %d at rest, want 0", got)
	}
}
