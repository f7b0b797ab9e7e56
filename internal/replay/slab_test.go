package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// TestFailedRunDropsItsInvocations replays a trace whose 500th record names
// an input class that does not exist. The run fails there with a launch
// still held by the runtime it abandons, so it must not hand its storage
// to the next run: a second run fails at the same record with the same
// error, rather than refusing or dispatching storage that is still in use.
func TestFailedRunDropsItsInvocations(t *testing.T) {
	tr, err := SynthesizeMix(whatIfMix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The launch just before it is a long one, so it is still running.
	tr.Records[498].Bench, tr.Records[498].Class = "NN", "large"
	tr.Records[499].Class = "huge"
	rp, err := NewReplayer(tr, ReplayerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var errs [2]error
	for i := range errs {
		if _, errs[i] = rp.Run(ReplayConfig{Policy: "ffs", Seed: 1}); errs[i] == nil {
			t.Fatalf("run %d replayed a record with class %q", i+1, tr.Records[499].Class)
		}
	}
	if errs[0].Error() != errs[1].Error() || !bytes.Contains([]byte(errs[0].Error()), []byte("record 500")) {
		t.Errorf("two runs of one trace failed differently:\n%v\n%v", errs[0], errs[1])
	}
}

// TestConcurrentRunsMatchSequential runs every what-if cell of one Replayer
// from two goroutines at once, in opposite orders, and holds each summary to
// the one a sequential run of the same Replayer produced: concurrent runs
// never share invocation storage. CI runs it under -race.
func TestConcurrentRunsMatchSequential(t *testing.T) {
	_, rp := mixReplayer(t)
	var cfgs []ReplayConfig
	for _, p := range []string{"hpf", "ffs", "edf", "fifo"} {
		for _, d := range []int{1, 2} {
			cfgs = append(cfgs, ReplayConfig{Policy: p, Devices: d, Seed: 3})
		}
	}
	want := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		sum, err := rp.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = mustJSON(t, sum)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(cfgs))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cfgs {
				i := k
				if g == 1 {
					i = len(cfgs) - 1 - k
				}
				sum, err := rp.Run(cfgs[i])
				if err != nil {
					errs <- err
					continue
				}
				if got, _ := json.Marshal(sum); !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d, %s on %d devices: summary differs from the sequential run", g, cfgs[i].Policy, cfgs[i].Devices)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
