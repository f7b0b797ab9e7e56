package main

import (
	"bytes"
	"strings"
	"testing"
)

// flepsim keeps the exit contract of internal/cli: arguments that cannot
// describe a run exit 2 with the reason and the flags before the offline
// phase, a run that fails exits 1, and one that succeeds exits 0.
func TestExitContract(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-pair", "VA,NN", "-ffs", "-horizon", "0"}, 2, "-ffs needs a positive horizon"},
		{[]string{"-pair", "VA,NOPE"}, 1, "flepsim: "},
		{[]string{"-pair", "VA,NN"}, 0, "offline phase"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		msg := stderr.String()
		if code != tc.code || !strings.Contains(msg, tc.stderr) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d and %q", tc.args, code, msg, tc.code, tc.stderr)
		}
		if usage := strings.Contains(msg, "Usage of flepsim"); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
		if tc.code == 2 && strings.Contains(msg, "offline") {
			t.Errorf("%q: a usage error started the offline phase: %q", tc.args, msg)
		}
		if (tc.code == 0) != strings.Contains(stdout.String(), "ANTT") {
			t.Errorf("%q: exit %d, stdout %q", tc.args, code, stdout.String())
		}
	}
}
