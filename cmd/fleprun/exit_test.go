package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// fleprun keeps the exit contract of internal/cli: arguments that cannot
// describe a run (no -host, or a -host the program cannot run) exit 2 with
// the reason and the flags, a run that fails exits 1, and one that
// succeeds exits 0.
func TestExitContract(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.cu")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "no -host given; host functions in <stdin>: run_it"},
		{[]string{"-host", "run_it:high"}, 2, `bad priority in "run_it:high"`},
		{[]string{"-host", "nope"}, 2, `no host function "nope" (have: run_it)`},
		{[]string{"-host", "run_it", absent}, 1, "fleprun: open " + absent},
		{[]string{"-host", "run_it:2", "-n", "64"}, 0, "compiled 1 kernel(s)"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, strings.NewReader(testProgram), &stdout, &stderr)
		msg := stderr.String()
		if code != tc.code || !strings.Contains(msg, tc.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", tc.args, code, msg, tc.code, tc.stderr)
		}
		if usage := strings.Contains(msg, "Usage of fleprun"); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
		if (tc.code == 0) != strings.Contains(stdout.String(), "makespan") {
			t.Errorf("%q: exit %d, stdout %q", tc.args, code, stdout.String())
		}
	}
}
