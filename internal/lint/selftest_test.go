package lint

import (
	"path/filepath"
	"runtime"
	"testing"
)

// TestRepoIsClean runs the full analyzer suite over the whole module —
// the same code path as `flepvet ./...` — and fails on any finding.
// This is what makes the contracts self-enforcing: a new wall-clock
// read in a deterministic package, an unsorted map iteration feeding
// output, a reasonless //flepvet:allow, or an allow whose finding has
// gone breaks `go test ./...` locally, before CI.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate module root")
	}
	moduleRoot := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	findings, err := Run(moduleRoot, []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatalf("running suite over module: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the code, add `//flepvet:allow <category> -- <reason>` where the pattern is deliberate, or delete an allow that suppresses nothing (see DESIGN.md §11)")
	}
}
