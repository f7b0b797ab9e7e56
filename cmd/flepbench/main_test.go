package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
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
	if err := writeArtifacts(&got, io.Discard, suite, nil); err != nil {
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

// TestEachArtifactAloneMatchesSuite regenerates every artifact by itself,
// on a fresh suite, and holds it to its block of results/flepbench.txt: no
// generator may depend on what ran before it, and Figure 14, which in paper
// order reads Figure 13's runs, must print the same table when it runs them
// itself.
func TestEachArtifactAloneMatchesSuite(t *testing.T) {
	committed, err := os.ReadFile("../../results/flepbench.txt")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]string{}
	for _, b := range strings.SplitAfter(string(committed), "\n\n") {
		if id, _, ok := strings.Cut(strings.TrimPrefix(b, "== "), ":"); ok {
			blocks[id] = b
		}
	}
	for _, g := range experiments.Generators() {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-only", g.ID}, &stdout, &stderr); code != 0 {
			t.Fatalf("-only %s: exit %d\n%s", g.ID, code, stderr.String())
		}
		if want, ok := blocks[g.ID]; !ok {
			t.Errorf("results/flepbench.txt has no %s block", g.ID)
		} else if got := stdout.String(); got != want {
			t.Errorf("-only %s prints a different table than the committed suite:\n%s\ncommitted:\n%s", g.ID, got, want)
		}
	}
}

// An ID no generator has used to be dropped without a word — `-only fig99`
// wrote nothing and exited 0, `-only fig99,fig1` printed Figure 1 alone —
// and -out was truncated before anyone looked. All three are refused before
// the output file is touched, naming the IDs that exist.
func TestOnlyRejectsUnknownArtifacts(t *testing.T) {
	for _, only := range []string{"fig99", "fig99,fig1", "fig1, ,fig8"} {
		out := filepath.Join(t.TempDir(), "results.txt")
		if err := os.WriteFile(out, []byte("the last good run\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-only", only, "-out", out}, &stdout, &stderr); code != 2 {
			t.Errorf("-only %q: exit %d, want 2", only, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, "fig13") || !strings.Contains(msg, "ext-ffs-triplet") || !strings.Contains(msg, "-list") {
			t.Errorf("-only %q: stderr does not name the valid IDs:\n%s", only, msg)
		}
		if kept, err := os.ReadFile(out); err != nil || string(kept) != "the last good run\n" {
			t.Errorf("-only %q: -out now holds %q (%v)", only, kept, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-only %q printed %q", only, stdout.String())
		}
	}
	want, err := parseOnly(" fig8 ,fig15")
	if err != nil || len(want) != 2 || !want["fig8"] || !want["fig15"] {
		t.Errorf("parseOnly of two valid IDs = %v, %v", want, err)
	}
}
