// Command flepvet prints the findings of the FLEP analyzer suite
// (internal/lint): the determinism, map-order, loop-purity,
// lock-discipline, metric-hygiene and lock-order contracts.
//
//	go run ./cmd/flepvet [patterns]   # default ./...
//
// A run with findings is a failed run: it exits 1. The gate is not this
// command but internal/lint's TestRepoIsClean, which runs the same suite
// over the whole module inside `go test ./...`.
package main

import (
	"fmt"
	"io"
	"os"

	"flep/internal/cli"
	"flep/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	return cli.Run("flepvet", args, stdout, stderr, flepvet)
}

func flepvet(c *cli.Command) error {
	if err := c.ParseArgs(); err != nil {
		return err
	}
	patterns := c.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns, lint.Analyzers())
	if err != nil {
		return err
	}
	for _, f := range findings {
		fmt.Fprintln(c.Stdout, f)
	}
	if len(findings) > 0 {
		return fmt.Errorf("%d finding(s)", len(findings))
	}
	return nil
}
