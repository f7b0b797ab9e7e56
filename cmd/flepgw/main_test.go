package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"flep/internal/server"
)

// syncBuffer is a log the gateway writes while the test reads it.
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

// startNode serves an in-process one-device VA fleet.
func startNode(t *testing.T) string {
	t.Helper()
	f, err := server.NewFleet(server.FleetConfig{Config: server.Config{Benchmarks: []string{"VA"}}, Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := f.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	return ts.URL
}

// flepgw keeps the exit contract of internal/cli: arguments that cannot
// describe a run exit 2 with the reason and the flags before it listens,
// a run that cannot start exits 1, and one whose context ends exits 0.
func TestExitContract(t *testing.T) {
	over, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-listen", "127.0.0.1:0", "-nodes", " , "}, 2, "flepgw: -nodes is required"},
		{[]string{"-listen", "127.0.0.1:0", "-nodes", "127.0.0.1:1", "-record", filepath.Join(t.TempDir(), "absent", "gw.trace")}, 1, "flepgw: replay: open trace "},
		{[]string{"-listen", "127.0.0.1:0", "-nodes", "127.0.0.1:1"}, 0, "flepgw: node n0 (http://127.0.0.1:1) state="},
	} {
		var stderr bytes.Buffer
		code := run(over, tc.args, &bytes.Buffer{}, &stderr)
		msg := stderr.String()
		if code != tc.code || !strings.Contains(msg, tc.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", tc.args, code, msg, tc.code, tc.stderr)
		}
		if usage := strings.Contains(msg, "Usage of flepgw"); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
		if tc.code == 2 && strings.Contains(msg, "serving on") {
			t.Errorf("%q: a usage error listened:\n%s", tc.args, msg)
		}
	}
}

// A gateway on a port of its own routes a launch to one of two nodes, then
// shuts down when its context ends and logs each node's ledger.
func TestGatewayServesUntilCanceled(t *testing.T) {
	nodes := startNode(t) + "," + startNode(t)
	ctx, cancel := context.WithCancel(context.Background())
	var stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-nodes", nodes, "-health-interval", "10ms"}, &bytes.Buffer{}, &stderr)
	}()
	addr := ""
	for deadline := time.Now().Add(10 * time.Second); addr == "" && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if _, rest, ok := strings.Cut(stderr.String(), "flepgw: serving on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		cancel()
		t.Fatalf("flepgw never served: exit %d\n%s", <-done, stderr.String())
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("gateway never ready")
		}
	}
	resp, err := http.Post("http://"+addr+"/v1/launch", "application/json",
		strings.NewReader(`{"client":"a","benchmark":"VA","class":"trivial","priority":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	node := resp.Header.Get("X-Flep-Node")
	if resp.StatusCode != http.StatusOK || node == "" {
		t.Fatalf("launch: %s from node %q", resp.Status, node)
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr.String())
	}
	log := stderr.String()
	for _, want := range []string{"flepgw: node " + node + " (", "state=ready accepted=1 failed=0 timed_out=0"} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
}
