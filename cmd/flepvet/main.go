// Command flepvet prints the findings of the FLEP analyzer suite
// (internal/lint): the determinism, map-order, loop-purity,
// lock-discipline, metric-hygiene and lock-order contracts.
//
//	go run ./cmd/flepvet [patterns]   # default ./...
//
// It exits 2 when there are findings. The gate is not this command but
// internal/lint's TestRepoIsClean, which runs the same suite over the
// whole module inside `go test ./...`.
package main

import (
	"fmt"
	"os"

	"flep/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.Run(".", patterns, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "flepvet:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "flepvet: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}
