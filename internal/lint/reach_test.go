package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"flep/internal/lint/analysis"
	"flep/internal/lint/loader"
)

// unreachedAllowed names the production declarations that no command,
// example or flepperf reaches and that stay anyway, each with its reason.
// A key is what the test prints: the package path below the module, then
// the declaration.
var unreachedAllowed = map[string]string{
	"internal/flepruntime.PolicyNames": "five test packages iterate over every policy with it",
	"internal/lint/loader.LoadFixture": "the analyzer fixture harness loads testdata/src through it in GOPATH mode",
	"internal/obs.Snapshot.Get":        "the obs, server and cluster tests read one scraped series through it",
	"internal/sim.(*Engine).Pending":   "the sim and flepruntime tests check that an engine drained through it",
	"bench/perf.Spread":                "flepperf's own tests pin it; bench/ changes only with the benchmark",
}

// dynamicInterfaces are the interfaces whose methods run without the
// program selecting them: the standard library calls the first group
// through values the program hands it, and cudalite's statement and
// expression markers exist only to type-check membership in their sums.
// Interfaces the program itself calls through are found by the scan.
var dynamicInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"math/rand", "Source"},
	{"container/heap", "Interface"},
	{"net/http", "RoundTripper"},
	{"flag", "Value"},
	{"flep/internal/cudalite", "Stmt"},
	{"flep/internal/cudalite", "Expr"},
}

// TestProductionCodeHasAProductionCaller holds every production
// declaration to a production caller. The roots are the main packages
// under cmd/, examples/ and bench/ and the exported API of the root flep
// package; from them the scan follows every identifier a reached
// declaration uses. A method of a reached type is reached when code
// selects it, or when the type satisfies an interface that reached code
// calls through or that dynamicInterfaces names. A declaration only tests
// reach belongs in a _test.go file; one nothing reaches goes.
func TestProductionCodeHasAProductionCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate module root")
	}
	moduleRoot := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	fset := token.NewFileSet()
	pkgs, err := loader.Load(fset, moduleRoot, []string{"./..."}, analysis.NewInfo)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	unreached := scanReach(pkgs)
	names := map[string]bool{}
	for _, obj := range unreached {
		name := declName(obj)
		names[name] = true
		if _, ok := unreachedAllowed[name]; !ok {
			t.Errorf("%s: %s has no production caller", fset.Position(obj.Pos()), name)
		}
	}
	for name := range unreachedAllowed {
		if !names[name] {
			t.Errorf("allowlist entry %s is stale: it is reached or gone", name)
		}
	}
}

// reach is the scan's state. The loader checks each package from source
// but its imports from export data, so one declaration is a different
// object in each package that uses it: the scan keys declarations by
// name (see declName).
type reach struct {
	decl   map[string]decl
	seen   map[string]bool
	work   []string
	ifaces map[string]*types.Interface // interfaces in use, by type name
	named  []*types.TypeName
}

// decl is one package-level declaration or method with its syntax.
type decl struct {
	obj  types.Object
	node ast.Node
	info *types.Info
}

// scanReach returns the declarations no root reaches, in source order.
func scanReach(pkgs []*loader.Package) []types.Object {
	r := &reach{decl: map[string]decl{}, seen: map[string]bool{}, ifaces: map[string]*types.Interface{}}
	src := map[string]*types.Package{}
	inits := map[string][]decl{}
	var roots []types.Object
	for _, pkg := range pkgs {
		src[pkg.PkgPath] = pkg.Types
		add := func(obj types.Object, n ast.Node) {
			r.decl[declName(obj)] = decl{obj, n, pkg.Info}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					if d.Recv == nil && d.Name.Name == "init" {
						inits[pkg.PkgPath] = append(inits[pkg.PkgPath], decl{obj, d, pkg.Info})
						continue
					}
					if d.Recv == nil && d.Name.Name == "main" && pkg.Types.Name() == "main" {
						roots = append(roots, obj)
					}
					add(obj, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := pkg.Info.Defs[s.Name]
							add(obj, s)
							if tn := obj.(*types.TypeName); !tn.IsAlias() {
								r.named = append(r.named, tn)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(pkg.Info.Defs[n], s)
							}
						}
					}
				}
			}
		}
		if pkg.PkgPath == "flep" {
			for _, name := range pkg.Types.Scope().Names() {
				if obj := pkg.Types.Scope().Lookup(name); obj.Exported() {
					roots = append(roots, obj)
				}
			}
		}
	}
	// A linked package runs its init functions, which have no name to reach.
	// Export data lists only the imports its declarations mention, so the
	// walk goes through each module package's source-checked imports.
	linked := map[string]*types.Package{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if linked[p.Path()] != nil {
			return
		}
		if s := src[p.Path()]; s != nil {
			p = s
		}
		linked[p.Path()] = p
		for _, d := range inits[p.Path()] {
			r.visit(d)
		}
		for _, q := range p.Imports() {
			link(q)
		}
	}
	for _, obj := range roots {
		link(obj.Pkg())
		r.mark(obj)
	}
	for _, d := range dynamicInterfaces {
		scope := types.Universe
		if d.pkg != "" {
			p := linked[d.pkg]
			if p == nil {
				continue
			}
			scope = p.Scope()
		}
		if obj := scope.Lookup(d.name); obj != nil {
			r.ifaces[types.TypeString(obj.Type(), nil)] = obj.Type().Underlying().(*types.Interface)
		}
	}
	for {
		for len(r.work) > 0 {
			k := r.work[len(r.work)-1]
			r.work = r.work[:len(r.work)-1]
			r.visit(r.decl[k])
		}
		// A reached type's methods that an interface in use demands.
		for _, tn := range r.named {
			if !r.seen[declName(tn)] {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for _, iface := range r.ifaces {
				if sels := demands(ms, iface); sels != nil {
					for _, sel := range sels {
						r.mark(sel.Obj())
					}
				}
			}
		}
		if len(r.work) == 0 {
			break
		}
	}
	var out []types.Object
	for k, d := range r.decl {
		if !r.seen[k] && d.obj.Name() != "_" {
			out = append(out, d.obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// demands returns the selections of the method set that the interface's
// methods name, or nil unless the set has every one of them. Matching is
// by name: an interface seen from another package's export data has
// signatures whose named types are other objects than the source's.
func demands(ms *types.MethodSet, iface *types.Interface) []*types.Selection {
	var sels []*types.Selection
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil {
			return nil
		}
		sels = append(sels, sel)
	}
	return sels
}

func (r *reach) push(k string) {
	if _, ok := r.decl[k]; ok && !r.seen[k] {
		r.seen[k] = true
		r.work = append(r.work, k)
	}
}

// mark reaches obj if it is a declaration of the module; push drops the
// rest, whose names no declaration of the module has. A method selected
// through an interface puts that interface in use instead.
func (r *reach) mark(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			r.ifaces[types.TypeString(recv.Type(), nil)] = recv.Type().Underlying().(*types.Interface)
			return
		}
		obj = fn.Origin()
	}
	if obj.Pkg() == nil {
		return // a builtin
	}
	if fn, ok := obj.(*types.Func); !ok || fn.Type().(*types.Signature).Recv() == nil {
		if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
			return // a field, a parameter or a local
		}
	}
	r.push(declName(obj))
}

// visit marks everything the declaration's syntax uses.
func (r *reach) visit(d decl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if used := d.info.Uses[id]; used != nil {
				r.mark(used)
			}
		}
		return true
	})
}

// declName renders a declaration as its package path below the module,
// a dot, and its name: internal/gpu.(*Device).Busy, flep.NewSystem.
func declName(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "flep/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				return pkg + ".(*" + p.Elem().(*types.Named).Obj().Name() + ")." + fn.Name()
			}
			return pkg + "." + typ.(*types.Named).Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + obj.Name()
}
