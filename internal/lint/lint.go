// Package lint is flepvet's analyzer suite: six checkers that
// mechanically enforce the contracts the FLEP reproduction's tests can
// only spot-check — the determinism contract (a recorded run replays
// bit-for-bit), the single-threaded event-loop discipline, the
// PR 2/PR 3 lock-discipline and PR 10 lock-ordering fix classes, and
// the obs metrics hygiene rules. The gate is TestRepoIsClean
// (selftest_test.go), which runs inside `go test ./...`;
// `go run ./cmd/flepvet` prints the same findings for a human. Both go
// through Run, so they cannot drift.
package lint

import (
	"fmt"
	"go/token"
	"sort"

	"flep/internal/lint/analysis"
	"flep/internal/lint/loader"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		LoopPurityAnalyzer,
		LockDisciplineAnalyzer,
		MetricHygieneAnalyzer,
		LockOrderAnalyzer,
	}
}

// knownCategories is the union of every analyzer's categories; allow
// annotations naming anything else are themselves diagnosed.
func knownCategories() map[string]bool {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		for _, c := range a.Categories {
			known[c] = true
		}
	}
	return known
}

// Finding is one resolved (position-rendered) diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Category string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s/%s] %s", f.Pos, f.Analyzer, f.Category, f.Message)
}

// Run loads the packages matched by patterns under dir and applies the
// analyzers. Returned findings are allow-filtered and position-sorted.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, dir, patterns, analysis.NewInfo)
	if err != nil {
		return nil, err
	}
	return RunPackages(fset, pkgs, analyzers)
}

// RunPackages applies the analyzers to already-loaded packages: the
// shared core of Run and the fixture harness.
func RunPackages(fset *token.FileSet, pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	known := knownCategories()
	var findings []Finding
	results := map[*analysis.Analyzer][]analysis.Result{}
	allows := &allowIndex{}
	report := func(analyzer string, d analysis.Diagnostic) {
		if pos := fset.Position(d.Pos); !allows.suppressed(pos, d.Category) {
			findings = append(findings, Finding{Pos: pos, Analyzer: analyzer, Category: d.Category, Message: d.Message})
		}
	}

	for _, pkg := range pkgs {
		// allowform is no analyzer's category, so no annotation
		// suppresses these.
		for _, d := range allows.collect(fset, pkg.Files, known) {
			report("flepvet", d)
		}
		for _, a := range analyzers {
			pass := analysis.NewPass(a, fset, pkg.Files, pkg.Types, pkg.Info,
				func(d analysis.Diagnostic) { report(a.Name, d) })
			val, err := a.Run(pass)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			if val != nil {
				results[a] = append(results[a], analysis.Result{PkgPath: pkg.PkgPath, Value: val})
			}
		}
	}

	// Cross-package rules (metric families registered in several places).
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(results[a], func(d analysis.Diagnostic) { report(a.Name, d) })
		}
	}
	findings = append(findings, allows.unused()...)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return findings, nil
}
