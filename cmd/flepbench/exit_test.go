package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// flepbench keeps the exit contract of internal/cli: arguments that cannot
// describe a run exit 2 with the reason and the flags before the offline
// phase, a run that fails exits 1, and one that succeeds exits 0.
func TestExitContract(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-only", "fig99"}, 2, `-only "fig99": no such artifact`},
		{[]string{"-only", "table1", "-out", filepath.Join(t.TempDir(), "absent", "results.txt")}, 1, "flepbench: open "},
		{[]string{"-list"}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		msg := stderr.String()
		if code != tc.code || !strings.Contains(msg, tc.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", tc.args, code, msg, tc.code, tc.stderr)
		}
		if usage := strings.Contains(msg, "Usage of flepbench"); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
		if tc.code != 0 && strings.Contains(msg, "offline") {
			t.Errorf("%q: started the offline phase: %q", tc.args, msg)
		}
		if (tc.code == 0) != strings.Contains(stdout.String(), "fig13\n") {
			t.Errorf("%q: exit %d, stdout %q", tc.args, code, stdout.String())
		}
	}
}
