// Package loader type-checks Go packages for flepvet without any
// dependency beyond the standard library and the go command. Package
// metadata and compiled export data come from `go list -export -deps
// -json`; the analyzed packages themselves are re-parsed from source
// (analyzers need syntax trees), and their imports are satisfied from
// the export data, so a whole-module load stays fast.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
}

// goList runs `go list -export -deps -json` for the patterns and decodes
// the package stream.
func goList(dir string, patterns []string) (map[string]*listPkg, []*listPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	byPath := map[string]*listPkg{}
	var order []*listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decode: %v", err)
		}
		lp := p
		byPath[lp.ImportPath] = &lp
		order = append(order, &lp)
	}
	return byPath, order, nil
}

// exportLookup satisfies go/importer's gc Lookup from a go list result:
// every import resolves to its compiled export data file.
func exportLookup(byPath map[string]*listPkg, importMap map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if m, ok := importMap[path]; ok {
			path = m
		}
		lp := byPath[path]
		if lp == nil {
			return nil, fmt.Errorf("loader: import %q not in go list output", path)
		}
		if lp.Export == "" {
			return nil, fmt.Errorf("loader: no export data for %q", path)
		}
		return os.Open(lp.Export)
	}
}

// parseFiles parses the named files (absolute or dir-relative) with
// comments retained.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load type-checks every non-dependency package matched by patterns
// (e.g. "./...") under dir. All packages share one FileSet, so token
// positions from different packages compare and render coherently.
func Load(fset *token.FileSet, dir string, patterns []string, newInfo func() *types.Info) ([]*Package, error) {
	byPath, order, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range order {
		if lp.DepOnly || lp.Standard || lp.Name == "" {
			continue
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("loader: %s: %w", lp.ImportPath, err)
		}
		info := newInfo()
		conf := types.Config{
			Importer: importer.ForCompiler(fset, "gc", exportLookup(byPath, lp.ImportMap)),
		}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("loader: typecheck %s: %w", lp.ImportPath, err)
		}
		out = append(out, &Package{
			PkgPath: lp.ImportPath, Dir: lp.Dir,
			Files: files, Types: tpkg, Info: info,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loader: no packages matched %v", patterns)
	}
	return out, nil
}

// LoadFixture type-checks the fixture package rooted at
// root/src/<importPath>. Imports resolve against sibling fixture
// packages first (root/src/<path>), then against real packages via the
// go command — so a fixture can import both a stub and e.g.
// "flep/internal/obs". The fixture's package path is importPath itself,
// which is how analyzers that scope by import path are exercised.
func LoadFixture(fset *token.FileSet, root, importPath string, newInfo func() *types.Info) (*Package, error) {
	ld := &fixtureLoader{
		fset: fset, root: root, newInfo: newInfo,
		typed: map[string]*types.Package{},
	}
	// Collect the transitive non-fixture imports up front so one go list
	// invocation covers them all.
	ext := map[string]bool{}
	if err := ld.scanImports(importPath, ext, map[string]bool{}); err != nil {
		return nil, err
	}
	if len(ext) > 0 {
		paths := make([]string, 0, len(ext))
		for p := range ext {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		byPath, _, err := goList(root, paths)
		if err != nil {
			return nil, err
		}
		ld.ext = importer.ForCompiler(fset, "gc", exportLookup(byPath, nil))
	}
	return ld.load(importPath)
}

type fixtureLoader struct {
	fset    *token.FileSet
	root    string
	newInfo func() *types.Info
	typed   map[string]*types.Package
	pkgs    map[string]*Package
	ext     types.Importer
}

func (ld *fixtureLoader) dirFor(importPath string) string {
	return filepath.Join(ld.root, "src", filepath.FromSlash(importPath))
}

func (ld *fixtureLoader) isFixture(importPath string) bool {
	st, err := os.Stat(ld.dirFor(importPath))
	return err == nil && st.IsDir()
}

// scanImports walks fixture packages recording every import that is not
// itself a fixture package.
func (ld *fixtureLoader) scanImports(importPath string, ext, seen map[string]bool) error {
	if seen[importPath] {
		return nil
	}
	seen[importPath] = true
	files, err := ld.parseDir(importPath)
	if err != nil {
		return err
	}
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == "unsafe" {
				continue
			}
			if ld.isFixture(p) {
				if err := ld.scanImports(p, ext, seen); err != nil {
					return err
				}
			} else {
				ext[p] = true
			}
		}
	}
	return nil
}

func (ld *fixtureLoader) parseDir(importPath string) ([]*ast.File, error) {
	dir := ld.dirFor(importPath)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: fixture %s: %w", importPath, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("loader: fixture %s: no .go files in %s", importPath, dir)
	}
	return parseFiles(ld.fset, dir, names)
}

// Import satisfies types.Importer for the fixture type-checker.
func (ld *fixtureLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.typed[path]; ok {
		return p, nil
	}
	if ld.isFixture(path) {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if ld.ext == nil {
		return nil, fmt.Errorf("loader: fixture import %q has no resolver", path)
	}
	return ld.ext.Import(path)
}

func (ld *fixtureLoader) load(importPath string) (*Package, error) {
	files, err := ld.parseDir(importPath)
	if err != nil {
		return nil, err
	}
	info := ld.newInfo()
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(importPath, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck fixture %s: %w", importPath, err)
	}
	ld.typed[importPath] = tpkg
	return &Package{
		PkgPath: importPath, Dir: ld.dirFor(importPath),
		Files: files, Types: tpkg, Info: info,
	}, nil
}
