// Package analysis is a dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough Analyzer/Pass/Diagnostic
// surface for flepvet's checkers. The shapes (and field names) mirror
// the upstream API deliberately, so if the x/tools module ever becomes
// an acceptable dependency the analyzers port by changing one import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos token.Pos
	// Category names the rule within the analyzer (it is also the key a
	// `//flepvet:allow <category> -- reason` annotation suppresses).
	Category string
	Message  string
}

// Result is one package's Run return value, handed to Finish.
type Result struct {
	PkgPath string
	Value   any
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	// Categories lists every diagnostic category the analyzer can emit;
	// the driver validates allow-annotations against the union.
	Categories []string
	// Run analyzes one package. The returned value (may be nil) is
	// collected for Finish.
	Run func(*Pass) (any, error)
	// Finish, when set, runs once after every package's Run with the
	// collected results — the hook for cross-package rules (e.g. a metric
	// registered in two packages).
	Finish func(results []Result, report func(Diagnostic))
}

// Pass carries one package's parsed and type-checked state to an
// analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// NewPass wires a Pass for a driver. report receives every diagnostic.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, report: report}
}

// Reportf emits a formatted diagnostic under the given category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// NewInfo returns a types.Info with every map analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
