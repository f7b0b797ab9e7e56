package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flep/internal/cudalite"
	"flep/internal/transform"
)

func TestReadSourceBench(t *testing.T) {
	src, name, err := readSource("VA", nil, nil)
	if err != nil || name != "VA" || !strings.Contains(src, "__global__ void va") {
		t.Fatalf("readSource bench: name=%q", name)
	}
}

func TestReadSourceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.cu")
	if err := os.WriteFile(path, []byte("__global__ void k() { }"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, name, err := readSource("", []string{path}, nil)
	if err != nil || name != path || src != "__global__ void k() { }" {
		t.Fatalf("readSource file: %q %q", name, src)
	}
}

// The full flepc pipeline: every benchmark source transforms in every mode
// and the output re-parses.
func TestPipelineAllBenchmarksAllModes(t *testing.T) {
	for _, bench := range []string{"CFD", "NN", "PF", "PL", "MD", "SPMV", "MM", "VA"} {
		src, _, err := readSource(bench, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []transform.Mode{transform.ModeTemporalNaive, transform.ModeTemporal, transform.ModeSpatial} {
			prog, err := cudalite.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", bench, err)
			}
			out, _, err := transform.TransformProgram(prog, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", bench, mode, err)
			}
			if _, err := cudalite.Parse(cudalite.Format(out)); err != nil {
				t.Fatalf("%s/%v: output does not re-parse: %v", bench, mode, err)
			}
		}
	}
}
