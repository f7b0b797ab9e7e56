package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"flep/internal/lint/analysis"
)

// LoopPurityAnalyzer protects the single-threaded event loop: code
// reachable from engine event handlers and scheduler callbacks must
// not block. Fleet sharding multiplied the loops by N, so one blocking
// call now stalls a whole device shard.
//
// Roots (per package):
//   - function literals passed to (sim.Engine).Schedule / At — the
//     discrete events themselves;
//   - the Fire method of any value passed as the handler to
//     (sim.Engine).ScheduleFire / AtFire — the same events, typed;
//   - function values assigned to callback fields named On* (OnFinish,
//     OnComplete, OnPreemptDrained, ...) — the runtime's hooks, which
//     all fire inside an engine step;
//   - in internal/server: the loop-goroutine methods loop, admit, and
//     complete, and every function value passed to the ctrl or onLoop
//     methods, which run it on the loop for a handler.
//
// From those roots the analyzer closes over same-package static calls
// and flags, inside the reachable set: time.Sleep, calls into net /
// net/http, channel sends outside a select with a default clause
// (category blockingsend — annotate provably buffered sends), and
// Lock on a mutex that non-loop code also locks (category sharedlock —
// the daemon-shared mutex class; annotate bounded critical sections).
var LoopPurityAnalyzer = &analysis.Analyzer{
	Name:       "looppurity",
	Doc:        "forbid blocking calls in event-loop-reachable code",
	Categories: []string{"block", "blockingsend", "sharedlock"},
	Run:        runLoopPurity,
}

// loopPurityPkgs scopes the analyzer to the packages that host event
// handlers: the deterministic simulation layers plus the daemon.
var loopPurityPkgs = []string{
	"flep/internal/sim",
	"flep/internal/gpu",
	"flep/internal/flepruntime",
	"flep/internal/core",
	"flep/internal/server",
}

// serverLoopMethods are the internal/server methods that run on the
// loop goroutine (documented as such in loop.go); they root the
// reachability in the daemon package, where no sim callback literal
// marks them.
var serverLoopMethods = map[string]bool{"loop": true, "admit": true, "complete": true, "depReport": true}

// serverLoopRunners are the internal/server methods that hand a function
// value to the loop goroutine: their func-typed arguments are roots.
var serverLoopRunners = map[string]bool{"ctrl": true, "onLoop": true}

// funcUnit is one analyzable body: a declared function/method or a
// rooted function literal.
type funcUnit struct {
	body *ast.BlockStmt
	name string
}

func runLoopPurity(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path(), loopPurityPkgs...) {
		return nil, nil
	}
	isServer := inScope(pass.Pkg.Path(), "flep/internal/server")

	// Index declared functions by object for call-graph edges.
	decls := map[*types.Func]*funcUnit{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = &funcUnit{body: fd.Body, name: fd.Name.Name}
		}
	}

	// Collect roots.
	var roots []*funcUnit
	seen := map[*types.Func]bool{}
	addFuncRoot := func(obj *types.Func) {
		if u := decls[obj]; u != nil && !seen[obj] {
			seen[obj] = true
			roots = append(roots, u)
		}
	}
	resolveFuncValue := func(e ast.Expr) (*funcUnit, *types.Func) {
		switch e := e.(type) {
		case *ast.FuncLit:
			return &funcUnit{body: e.Body, name: "func literal"}, nil
		case *ast.Ident:
			if obj, ok := pass.TypesInfo.Uses[e].(*types.Func); ok {
				return nil, obj
			}
		case *ast.SelectorExpr:
			if obj, ok := pass.TypesInfo.Uses[e.Sel].(*types.Func); ok {
				return nil, obj
			}
		}
		return nil, nil
	}
	addValueRoot := func(e ast.Expr, why string) {
		lit, obj := resolveFuncValue(e)
		if lit != nil {
			lit.name = why
			roots = append(roots, lit)
		} else if obj != nil && obj.Pkg() == pass.Pkg {
			addFuncRoot(obj)
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// fn arguments of Engine.Schedule/At, the Fire method of
				// the handler argument of Engine.ScheduleFire/AtFire, and
				// the work a server handler passes to ctrl/onLoop.
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
				if !ok {
					break
				}
				if isServer && fn.Pkg() == pass.Pkg && serverLoopRunners[fn.Name()] {
					for _, arg := range n.Args {
						addValueRoot(arg, "work passed to "+fn.Name())
					}
				}
				if isEngineScheduler(fn) {
					for _, arg := range n.Args {
						t := pass.TypesInfo.TypeOf(arg)
						if _, ok := t.(*types.Signature); ok {
							addValueRoot(arg, "event scheduled on the engine")
						} else if fire, _, _ := types.LookupFieldOrMethod(t, true, nil, "Fire"); fire != nil {
							if obj, ok := fire.(*types.Func); ok && obj.Pkg() == pass.Pkg {
								addFuncRoot(obj)
							}
						}
					}
				}
			case *ast.KeyValueExpr:
				// Callback fields in composite literals: OnFinish: func(...){...}.
				if key, ok := n.Key.(*ast.Ident); ok && isCallbackField(key.Name, pass.TypesInfo.TypeOf(n.Value)) {
					addValueRoot(n.Value, "callback "+key.Name)
				}
			case *ast.AssignStmt:
				// x.OnComplete = fn assignments.
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					if isCallbackField(sel.Sel.Name, pass.TypesInfo.TypeOf(n.Rhs[i])) {
						addValueRoot(n.Rhs[i], "callback "+sel.Sel.Name)
					}
				}
			case *ast.FuncDecl:
				if isServer && n.Recv != nil && serverLoopMethods[n.Name.Name] {
					if obj, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
						addFuncRoot(obj)
					}
				}
			}
			return true
		})
	}

	// Close over same-package static calls.
	reachable := map[*ast.BlockStmt]string{}
	var queue []*funcUnit
	enqueue := func(u *funcUnit) {
		if _, ok := reachable[u.body]; !ok {
			reachable[u.body] = u.name
			queue = append(queue, u)
		}
	}
	for _, r := range roots {
		enqueue(r)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		walkBodyShallow(u.body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			_, obj := resolveFuncValue(call.Fun)
			if obj != nil && obj.Pkg() == pass.Pkg {
				if next := decls[obj]; next != nil {
					enqueue(next)
				}
			}
		})
	}

	// Shared-mutex detection: a mutex field locked both inside and
	// outside the reachable set belongs to the daemon's shared state.
	lockSites := collectLockSites(pass)

	for body, name := range reachable {
		checkLoopBody(pass, body, name, reachable, lockSites)
	}
	return nil, nil
}

// isEngineScheduler matches (sim.Engine) Schedule/At and their typed
// twins ScheduleFire/AtFire in the real tree and in fixtures (any package
// whose path ends in internal/sim).
func isEngineScheduler(fn *types.Func) bool {
	switch fn.Name() {
	case "Schedule", "At", "ScheduleFire", "AtFire":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return strings.HasSuffix(p, "internal/sim") || p == "sim"
}

// isCallbackField matches func-typed fields named like runtime hooks.
func isCallbackField(name string, t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Signature); !ok {
		return false
	}
	return strings.HasPrefix(name, "On") && len(name) > 2
}

// walkBodyShallow visits body without descending into nested function
// literals (they run when invoked, not when defined — and if they are
// callbacks, the root collection already owns them).
func walkBodyShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockSite records one X.Lock() with whether it is loop-reachable.
type lockSite struct {
	key  string // rendered receiver expression, e.g. "s.mu"
	body *ast.BlockStmt
}

func collectLockSites(pass *analysis.Pass) []lockSite {
	var sites []lockSite
	for _, f := range pass.Files {
		var stack []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					stack = append(stack, n.Body)
				}
			case *ast.FuncLit:
				stack = append(stack, n.Body)
			case *ast.CallExpr:
				if method, _, key := lockOp(pass.TypesInfo, n); method == "Lock" || method == "RLock" {
					if len(stack) > 0 {
						sites = append(sites, lockSite{key: key, body: stack[len(stack)-1]})
					}
				}
			case nil:
			}
			return true
		})
		// NB: the stack is only used to attribute a site to its innermost
		// enclosing body; imbalance on exit is harmless because each file
		// walk finishes all bodies it opened.
	}
	return sites
}

func checkLoopBody(pass *analysis.Pass, body *ast.BlockStmt, name string, reachable map[*ast.BlockStmt]string, lockSites []lockSite) {
	walkBodyShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			if method, _, key := lockOp(pass.TypesInfo, n); method == "Lock" || method == "RLock" {
				if lockedOutsideLoop(key, reachable, lockSites) {
					pass.Reportf(n.Pos(), "sharedlock",
						"%s.%s in %s locks a mutex that non-loop code also takes; the loop can stall behind a handler (keep the critical section bounded and annotate, or move the state to the loop)",
						key, method, name)
				}
				return
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Sleep" {
					pass.Reportf(n.Pos(), "block",
						"time.Sleep in %s blocks the event loop; pace with engine events or a selectable timer", name)
				}
			case "net", "net/http":
				pass.Reportf(n.Pos(), "block",
					"%s.%s in %s performs network I/O on the event loop; hand it to a worker goroutine",
					fn.Pkg().Name(), fn.Name(), name)
			}
		case *ast.SendStmt:
			if !sendInSelectWithDefault(pass, body, n) {
				pass.Reportf(n.Pos(), "blockingsend",
					"channel send in %s can block the event loop; use select with default, or annotate if the channel is provably buffered", name)
			}
		}
	})
}

// lockedOutsideLoop reports whether the mutex (by rendered receiver)
// is also locked in a body outside the reachable set.
func lockedOutsideLoop(key string, reachable map[*ast.BlockStmt]string, sites []lockSite) bool {
	for _, s := range sites {
		if s.key != key {
			continue
		}
		if _, inLoop := reachable[s.body]; !inLoop {
			return true
		}
	}
	return false
}

// sendInSelectWithDefault reports whether the send is the comm
// statement of a select clause whose select carries a default.
func sendInSelectWithDefault(pass *analysis.Pass, body *ast.BlockStmt, send *ast.SendStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		sel, isSel := n.(*ast.SelectStmt)
		if !isSel {
			return true
		}
		hasDefault := false
		owns := false
		for _, c := range sel.Body.List {
			cc, isCC := c.(*ast.CommClause)
			if !isCC {
				continue
			}
			if cc.Comm == nil {
				hasDefault = true
			} else if cc.Comm.Pos() == send.Pos() {
				owns = true
			}
		}
		if owns && hasDefault {
			ok = true
			return false
		}
		return true
	})
	return ok
}
