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
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"flep/internal/cli"
	"flep/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("flepbench", args, stdout, stderr, flepbench)
}

func flepbench(c *cli.Command) error {
	only := c.String("only", "", "comma-separated artifact IDs (default: all)")
	out := c.String("out", "", "output file (default: stdout)")
	list := c.Bool("list", false, "list artifact IDs and exit")
	if err := c.ParseArgs(); err != nil {
		return err
	}
	if *list {
		for _, g := range experiments.Generators() {
			fmt.Fprintln(c.Stdout, g.ID)
		}
		return nil
	}
	// Before -out is created: a typo must not truncate the last good file.
	want, err := parseOnly(*only)
	if err != nil {
		return c.Usagef("%v", err)
	}
	w := c.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintln(c.Stderr, "flepbench: offline phase (scan, tune, train, profile all kernels)...")
	start := time.Now()
	suite, err := experiments.NewSuite()
	if err != nil {
		return fmt.Errorf("offline: %w", err)
	}
	fmt.Fprintf(c.Stderr, "flepbench: offline done in %v\n", time.Since(start).Round(time.Millisecond))
	return writeArtifacts(w, c.Stderr, suite, want)
}

// parseOnly turns -only's list into the set of artifacts to regenerate (empty:
// all of them). An ID no generator has is an error naming the ones that exist.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	var valid []string
	for _, g := range experiments.Generators() {
		valid = append(valid, g.ID)
	}
	for _, id := range strings.Split(only, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("-only %q: no such artifact (-list prints them: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	return want, nil
}

// writeArtifacts regenerates the wanted artifacts (all of them when want
// is empty) onto w in paper order. results/flepbench.txt is this
// function's output for the whole suite.
func writeArtifacts(w, progress io.Writer, suite *experiments.Suite, want map[string]bool) error {
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
		fmt.Fprintf(progress, "flepbench: %s regenerated in %v\n", g.ID, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
