package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"flep/internal/experiments"
)

// TestCommittedResultsMatchSuite keeps results/flepbench.txt — the file
// EXPERIMENTS.md quotes its "measured" figures from — equal to what the
// suite prints today. The suite is deterministic, so any difference means
// a change moved a paper figure: regenerate the file with
// `go run ./cmd/flepbench -out results/flepbench.txt` and correct the
// EXPERIMENTS.md figures that quote it.
func TestCommittedResultsMatchSuite(t *testing.T) {
	const path = "../../results/flepbench.txt"
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := experiments.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeArtifacts(&got, suite, nil); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), committed) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(committed), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s is stale; first difference at line %d:\n committed: %s\n suite:     %s", path, i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("%s is stale: %d lines committed, the suite prints %d", path, len(wantLines), len(gotLines))
}
