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
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
}

// goList runs `go list -export -deps -json` for the patterns, with env
// appended to the inherited environment, and decodes the package stream.
func goList(dir string, env, patterns []string) (map[string]*listPkg, []*listPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	byPath := map[string]*listPkg{}
	var order []*listPkg
	for dec := json.NewDecoder(&out); ; {
		lp := &listPkg{}
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decode: %v", err)
		}
		byPath[lp.ImportPath] = lp
		order = append(order, lp)
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

// Load type-checks every non-dependency package matched by patterns
// (e.g. "./...") under dir. All packages share one FileSet, so token
// positions from different packages compare and render coherently.
func Load(fset *token.FileSet, dir string, patterns []string, newInfo func() *types.Info) ([]*Package, error) {
	return load(fset, dir, nil, patterns, newInfo)
}

// LoadFixture type-checks the fixture package root/src/<importPath> the
// way analysistest loads testdata: in GOPATH mode with root as GOPATH, so
// a fixture imports sibling fixture packages (stubs of real ones, such
// as flep/internal/sim) by import path. The fixture's package path is
// importPath itself, which is how analyzers that scope by import path
// are exercised.
func LoadFixture(fset *token.FileSet, root, importPath string, newInfo func() *types.Info) (*Package, error) {
	pkgs, err := load(fset, root, []string{"GO111MODULE=off", "GOPATH=" + root, "GOFLAGS="}, []string{importPath}, newInfo)
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

func load(fset *token.FileSet, dir string, env, patterns []string, newInfo func() *types.Info) ([]*Package, error) {
	byPath, order, err := goList(dir, env, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range order {
		if lp.DepOnly || lp.Standard || lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("loader: %s: %w", lp.ImportPath, err)
			}
			files = append(files, f)
		}
		info := newInfo()
		conf := types.Config{Importer: importer.ForCompiler(fset, "gc", exportLookup(byPath, lp.ImportMap))}
		tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("loader: typecheck %s: %w", lp.ImportPath, err)
		}
		out = append(out, &Package{PkgPath: lp.ImportPath, Dir: lp.Dir, Files: files, Types: tpkg, Info: info})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loader: no packages matched %v", patterns)
	}
	return out, nil
}
