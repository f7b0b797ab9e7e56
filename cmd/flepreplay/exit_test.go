package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// flepreplay keeps the exit contract of internal/cli: arguments that
// cannot describe a run exit 2 with the reason and the flags before the
// trace is read, a run that fails exits 1, and one that succeeds exits 0.
func TestExitContract(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.trace")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"whatif", "-trace", absent, "-L", "0,-4"}, 2, "negative"},
		{[]string{"replay", "-trace", absent}, 1, "open " + absent},
		{[]string{"record", "-o", filepath.Join(t.TempDir(), "mix.trace")}, 0, ""},
	} {
		code, stdout, stderr := flepreplay(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr, tc.code, tc.stderr)
		}
		if usage := strings.Contains(stderr, "Usage of flepreplay "+tc.args[0]); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
		if (tc.code == 0) != strings.Contains(stdout, "wrote 75 records") {
			t.Errorf("%q: exit %d, stdout %q", tc.args, code, stdout)
		}
	}
}
