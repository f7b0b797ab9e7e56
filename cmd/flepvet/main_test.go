package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// flepvet keeps the exit contract of internal/cli: arguments that cannot
// describe a run exit 2 with the reason and the flags, a run that finds
// problems is a failed run and exits 1, and a clean run exits 0.
func TestExitContract(t *testing.T) {
	// A module of its own: its root package prints in map order, and
	// package clean does nothing wrong.
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":        "module vetme\n\ngo 1.24\n",
		"a.go":          "package vetme\n\nimport \"fmt\"\n\nfunc Print(m map[string]int) {\n\tfor k := range m {\n\t\tfmt.Println(k)\n\t}\n}\n",
		"clean/okay.go": "package clean\n\nfunc Two() int { return 2 }\n",
	} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"-fix"}, 2, "", "flag provided but not defined: -fix"},
		{nil, 1, "a.go:7:3: [maporder/maporder]", "flepvet: 1 finding(s)"},
		{[]string{"./absent"}, 1, "", "flepvet: "},
		{[]string{"./clean"}, 0, "", ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit %d, %q and %q",
				tc.args, code, stdout.String(), stderr.String(), tc.code, tc.stdout, tc.stderr)
		}
		if usage := strings.Contains(stderr.String(), "Usage of flepvet"); usage != (tc.code == 2) {
			t.Errorf("%q: exit %d, flag list printed: %v", tc.args, code, usage)
		}
	}
}
