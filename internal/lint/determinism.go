package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"flep/internal/lint/analysis"
)

// deterministicPkgs are the packages whose outputs must be a pure
// function of (trace, config, seed): everything a replay Summary or a
// what-if cell is computed from, the dependency table included, and the
// interpreter and host sessions whose data tests compare bit for bit. A
// wall-clock read or a global-rand draw anywhere in here can silently
// break the byte-identical replay contract, so those calls are banned
// outright; the server/daemon boundary (cmd/, internal/server) stays free
// to read real time.
var deterministicPkgs = []string{
	"flep/internal/core",
	"flep/internal/cudalite",
	"flep/internal/gpu",
	"flep/internal/hostexec",
	"flep/internal/model",
	"flep/internal/sim",
	"flep/internal/flepruntime",
	"flep/internal/perfmodel",
	"flep/internal/trace",
	"flep/internal/replay",
}

// inScope reports whether path is one of pkgs or a package beneath one,
// so fixture packages under e.g. flep/internal/sim/... are exercised too.
func inScope(path string, pkgs ...string) bool {
	for _, p := range pkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// wallClockFuncs are the package time functions that read the real
// clock (or arm real timers). Duration arithmetic and constants stay
// legal — the virtual clock's currency is time.Duration.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// globalRandFuncs are the math/rand (and v2) package-level functions
// backed by the process-global source. Constructing a seeded
// *rand.Rand (rand.New, rand.NewSource) is the sanctioned pattern and
// is not listed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
	// math/rand/v2 spellings.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

// envFuncs are the os environment reads that make behavior depend on
// ambient process state.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// DeterminismAnalyzer forbids wall-clock reads, global/unseeded
// math/rand, and environment-dependent behavior inside the
// deterministic packages.
var DeterminismAnalyzer = &analysis.Analyzer{
	Name:       "determinism",
	Doc:        "forbid wall clocks, global rand, and env reads in deterministic packages",
	Categories: []string{"wallclock", "rand", "env"},
	Run:        runDeterminism,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), deterministicPkgs...) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are fine
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "wallclock",
						"time.%s reads the wall clock in deterministic package %s; thread the virtual clock (sim.Engine.Now) or inject it from the daemon boundary",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if globalRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "rand",
						"rand.%s draws from the process-global source in deterministic package %s; use a seeded *rand.Rand (rand.New(rand.NewSource(seed)))",
						fn.Name(), pass.Pkg.Path())
				}
			case "os":
				if envFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "env",
						"os.%s makes deterministic package %s depend on ambient environment; take the value as explicit configuration",
						fn.Name(), pass.Pkg.Path())
				}
			}
			return true
		})
	}
	return nil, nil
}
