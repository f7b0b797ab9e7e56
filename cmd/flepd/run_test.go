package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flep/internal/replay"
)

// syncBuffer is a log the daemon writes while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startFlepd runs flepd in process. It returns the address the daemon
// logged it serves on, and stop, which cancels the run and returns its
// exit status and log.
func startFlepd(t *testing.T, args ...string) (addr string, stop func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() { done <- run(ctx, args, &bytes.Buffer{}, &stderr) }()
	stop = func() (int, string) {
		cancel()
		return <-done, stderr.String()
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, rest, ok := strings.Cut(stderr.String(), "flepd: serving on "); ok {
			addr, _, _ = strings.Cut(rest, "\n")
			return addr, stop
		}
	}
	code, log := stop()
	t.Fatalf("flepd never served: exit %d\n%s", code, log)
	return "", nil
}

// flepd keeps the exit contract of internal/cli: arguments that cannot
// describe a run exit 2 with the reason and the flags before the offline
// phase, a run that cannot start exits 1, and one whose context ends
// drains and exits 0. Every path releases what the run started.
func TestExitContract(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	over := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	for _, tc := range []struct {
		args   []string
		code   int
		stderr []string
	}{
		{[]string{"-addr", "127.0.0.1:0", "-weights", "1:2"}, 2, []string{`bad weight "1:2" (want PRIO=WEIGHT)`, "Usage of flepd"}},
		{[]string{"-addr", "127.0.0.1:0", "-bench", "VA", "-spatial", "-spatial-sms", "15"}, 1,
			[]string{"spatial preemption cannot yield 15 SMs of a 15-SM device"}},
		{[]string{"-addr", taken.Addr().String(), "-bench", "VA", "-record", filepath.Join(t.TempDir(), "run.trace")}, 1,
			[]string{"address already in use", "device 0 drained cleanly", "fleet enqueued=0 completed=0", "0 launches recorded"}},
		{[]string{"-addr", "127.0.0.1:0", "-bench", "VA"}, 0, []string{"flepd: serving on 127.0.0.1:", "device 0 drained cleanly"}},
	} {
		var stderr bytes.Buffer
		code := run(over(), tc.args, &bytes.Buffer{}, &stderr)
		msg := stderr.String()
		if code != tc.code {
			t.Errorf("%q: exit %d, want %d\n%s", tc.args, code, tc.code, msg)
		}
		for _, want := range tc.stderr {
			if !strings.Contains(msg, want) {
				t.Errorf("%q: stderr lacks %q:\n%s", tc.args, want, msg)
			}
		}
		if tc.code == 2 && strings.Contains(msg, "offline") {
			t.Errorf("%q: a usage error started the offline phase:\n%s", tc.args, msg)
		}
	}
}

// A daemon on a port of its own serves a launch, then drains when its
// context ends: the accounting lines are logged and the trace holds the
// launch.
func TestServeLaunchDrainAndRecord(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.trace")
	addr, stop := startFlepd(t, "-addr", "127.0.0.1:0", "-bench", "VA", "-record", trace)
	resp, err := http.Post("http://"+addr+"/v1/launch", "application/json",
		strings.NewReader(`{"client":"a","benchmark":"VA","class":"trivial","priority":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("launch: %s", resp.Status)
	}
	code, log := stop()
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, log)
	}
	for _, want := range []string{
		"flepd: device 0 drained cleanly at virtual ",
		"flepd: fleet enqueued=1 completed=1 submit_errors=0 ",
		"flepd: trace " + trace + ": 1 launches recorded",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
	tr, err := replay.Load(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 || tr.Records[0].Bench != "VA" {
		t.Errorf("trace records %+v, want the one VA launch", tr.Records)
	}
}
