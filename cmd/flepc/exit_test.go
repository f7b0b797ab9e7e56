package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// flepc keeps the exit contract of internal/cli: arguments that cannot
// describe a run exit 2 with the reason and the flags before any source is
// read, a run that fails exits 1, and one that succeeds exits 0.
func TestExitContract(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.cu")
	for _, tc := range []struct {
		args   []string
		stdin  string
		code   int
		stderr string
	}{
		{[]string{"-mode", "eager", absent}, "", 2, `unknown mode "eager"`},
		{[]string{absent}, "", 1, "flepc: open " + absent},
		{[]string{"-mode", "temporal"}, "__global__ void k(float* a) { a[0] = 1.0; }", 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, strings.NewReader(tc.stdin), &stdout, &stderr)
		msg := stderr.String()
		if code != tc.code || !strings.Contains(msg, tc.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", tc.args, code, msg, tc.code, tc.stderr)
		}
		if usage := strings.Contains(msg, "Usage of flepc"); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
		if (tc.code == 0) != strings.Contains(stdout.String(), "__global__ void k(") {
			t.Errorf("%q: exit %d, stdout %q", tc.args, code, stdout.String())
		}
	}
}
