package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"flep/internal/replay"
)

// flepreplay runs the command in process and returns its exit code and
// what it wrote.
func flepreplay(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// recordMix writes a small VA-only trace (one recorded device) and
// returns its path.
func recordMix(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mix.trace")
	if code, _, stderr := flepreplay("record", "-o", path, "-seed", "3",
		"-mix", "hi:VA:small:2::1ms:6,lo:VA:large:1::4ms:2"); code != 0 {
		t.Fatalf("record: exit %d: %s", code, stderr)
	}
	return path
}

func TestArgumentsThatDescribeNoRunExitTwoWithUsage(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stderr, beside the usage text
	}{
		{nil, "usage: flepreplay <subcommand>"},
		{[]string{"rewind"}, `unknown subcommand "rewind"`},
		{[]string{"replay"}, "-trace is required"},
		{[]string{"whatif"}, "-trace is required"},
		{[]string{"replay", "-nope"}, "flag provided but not defined"},
		{[]string{"replay", "-trace", "x", "-save-models", "m.json"}, "flag provided but not defined"},
		{[]string{"whatif", "-trace", "x", "-models", "m.json"}, "flag provided but not defined"},
		{[]string{"whatif", "-trace", "x", "-devices", "two"}, `-devices: bad int "two"`},
	} {
		code, stdout, stderr := flepreplay(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) || !strings.Contains(strings.ToLower(stderr), "usage") || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and %q with the usage text", tc.args, code, stdout, stderr, tc.want)
		}
	}
	if code, _, stderr := flepreplay("help"); code != 0 || !strings.Contains(stderr, "subcommands:") {
		t.Errorf("help: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := flepreplay("replay", "-trace", filepath.Join(t.TempDir(), "absent.trace")); code != 1 || stderr == "" {
		t.Errorf("a missing trace file is a failed run: exit %d, stderr %q", code, stderr)
	}
}

// A negative device count used to mean "as recorded" and a negative L
// "tuned", so `-devices 0,-2` replayed one configuration twice under two
// names and recommended the made-up one. Both are usage errors, reported
// before the trace is even opened.
func TestWhatIfRejectsNegativeAxes(t *testing.T) {
	for _, axis := range [][]string{{"-devices", "0,-2"}, {"-L", "0,-4"}} {
		args := append([]string{"whatif", "-trace", "never-opened.trace"}, axis...)
		code, stdout, stderr := flepreplay(args...)
		if code != 2 || !strings.Contains(stderr, "negative") || !strings.Contains(stderr, "Usage of flepreplay whatif") || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, the reason and the flags", axis, code, stdout, stderr)
		}
	}
}

// Axis points that resolve to one configuration run once, under the name
// of what ran: on a trace recorded on one device, 0 ("as recorded") and 1
// are the same device count, and -1 and -3 the same "spatial off".
func TestWhatIfNamesResolvedDevices(t *testing.T) {
	code, stdout, stderr := flepreplay("whatif", "-trace", recordMix(t), "-q", "-json",
		"-policies", "hpf,fifo,hpf", "-devices", "0,1,2", "-spa", "-1,-3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var cmp replay.Comparison
	if err := json.Unmarshal([]byte(stdout), &cmp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range cmp.Cells {
		names = append(names, c.Name)
		if c.Devices != c.Summary.Devices || c.Spatial != -1 || c.Summary.Spatial {
			t.Errorf("cell %s: devices %d, summary ran on %d; spatial axis %d, summary spatial %v",
				c.Name, c.Devices, c.Summary.Devices, c.Spatial, c.Summary.Spatial)
		}
	}
	want := "hpf/d1/spa-off hpf/d2/spa-off fifo/d1/spa-off fifo/d2/spa-off"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("cells %q, want %q", got, want)
	}
	for _, f := range cmp.Findings {
		if strings.Contains(f, "throughput of 0") || strings.Contains(f, "devices deliver") && !strings.Contains(f, "2 devices deliver") {
			t.Errorf("finding compares device counts that did not run: %s", f)
		}
	}
}
