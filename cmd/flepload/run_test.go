package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flep/internal/server"
)

// startFleet serves an in-process one-device fleet over the benchmarks
// the diamond model launches.
func startFleet(t *testing.T) string {
	t.Helper()
	f, err := server.NewFleet(server.FleetConfig{Config: server.Config{Benchmarks: []string{"VA", "MM", "SPMV"}}, Devices: 1})
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

func runLoad(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// flepload keeps the exit contract of internal/cli: arguments that cannot
// describe a run exit 2 with the reason and the flags before any request,
// a run that fails exits 1, and one that succeeds exits 0.
func TestExitContract(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	addr := startFleet(t)
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-addr", gone.URL, "-prio", "1=NaN"}, 2, `-prio: bad share "NaN"`},
		{[]string{"-addr", gone.URL, "-model", "lenet"}, 2, `-model: model "lenet"`},
		{[]string{"-addr", gone.URL}, 1, "flepload: discovering benchmarks: "},
		{[]string{"-addr", addr, "-clients", "2", "-n", "1"}, 0, ""},
	} {
		code, stdout, stderr := runLoad(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr, tc.code, tc.stderr)
		}
		if usage := strings.Contains(stderr, "Usage of flepload"); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
		if (tc.code == 0) != strings.Contains(stdout, "exactly-once:  OK") {
			t.Errorf("%q: exit %d, stdout %q", tc.args, code, stdout)
		}
	}
}

// A run against an in-process fleet reports every launch, the exactly-once
// check and the daemon's metric deltas; a model run adds its per-model
// line.
func TestRunAgainstFleet(t *testing.T) {
	addr := startFleet(t)
	code, stdout, stderr := runLoad("-addr", addr, "-clients", "4", "-n", "3", "-bench", "VA", "-class", "trivial")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"flepload: 4 clients × 3 launches, benches=VA class=trivial",
		"requests:      ok=12 timeouts=0 errors=0",
		"exactly-once:  OK (no lost or duplicated invocations)",
		"daemon deltas (/metrics, after − before, all devices):",
		"  runtime:     submits=12 ",
		" completions=12\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}

	code, stdout, stderr = runLoad("-addr", addr, "-clients", "2", "-n", "2", "-model", "diamond")
	if code != 0 {
		t.Fatalf("-model diamond: exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "per model:\n  model diamond    graphs=4 completed=4 canceled=0  stages ok=16 ") {
		t.Errorf("-model diamond: stdout lacks the per-model line:\n%s", stdout)
	}
}

// Two 200s that name one invocation on one device are a duplicated
// delivery: the run fails.
func TestDuplicateInvocationFailsTheRun(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/launch" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"id":7,"device":0}`)
	}))
	defer ts.Close()
	code, stdout, stderr := runLoad("-addr", ts.URL, "-clients", "1", "-n", "2", "-bench", "VA")
	if code != 1 || !strings.Contains(stdout, "requests:      ok=2") ||
		!strings.Contains(stdout, `exactly-once:  FAIL: node "" device 0 invocation id 7 delivered 2 times`) ||
		!strings.Contains(stderr, "flepload: exactly-once: ") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}
