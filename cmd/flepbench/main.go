// Command flepbench regenerates every table and figure of the paper's
// evaluation and prints them as aligned text tables (or writes them to a
// file). The "note:" lines under each table state the paper's reported
// values next to the measured ones.
//
// Usage:
//
//	flepbench                  # all artifacts
//	flepbench -only fig8,fig15 # a subset
//	flepbench -out results.txt # write to a file
//	flepbench -list            # list artifact IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flep/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated artifact IDs (default: all)")
	out := flag.String("out", "", "output file (default: stdout)")
	list := flag.Bool("list", false, "list artifact IDs and exit")
	flag.Parse()

	gens := experiments.Generators()
	if *list {
		for _, g := range gens {
			fmt.Println(g.ID)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintln(os.Stderr, "flepbench: offline phase (transform, tune, train, profile all kernels)...")
	start := time.Now()
	suite, err := experiments.NewSuite()
	if err != nil {
		fatalf("offline: %v", err)
	}
	fmt.Fprintf(os.Stderr, "flepbench: offline done in %v\n", time.Since(start).Round(time.Millisecond))

	if err := writeArtifacts(w, suite, want); err != nil {
		fatalf("%v", err)
	}
}

// writeArtifacts regenerates the wanted artifacts (all of them when want
// is empty) onto w in paper order. results/flepbench.txt is this
// function's output for the whole suite.
func writeArtifacts(w io.Writer, suite *experiments.Suite, want map[string]bool) error {
	for _, g := range experiments.Generators() {
		if len(want) > 0 && !want[g.ID] {
			continue
		}
		t0 := time.Now()
		tab, err := g.Run(suite)
		if err != nil {
			return fmt.Errorf("%s: %w", g.ID, err)
		}
		fmt.Fprintln(w, tab.Format())
		fmt.Fprintf(os.Stderr, "flepbench: %s regenerated in %v\n", g.ID, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flepbench: "+format+"\n", args...)
	os.Exit(1)
}
