package lint

import (
	"go/ast"
	"go/types"

	"flep/internal/lint/analysis"
)

// LockDisciplineAnalyzer flags work done while a sync.Mutex/RWMutex is
// held that can block or re-enter: channel sends, invocations of
// function values (callbacks — the PR 2 deadlock class, where a
// callback fired under the registry lock tried to take it again), and
// network / ResponseWriter I/O. The fix idiom this enforces is the one
// the codebase already uses: lock, copy, unlock, then send/call/render.
var LockDisciplineAnalyzer = &analysis.Analyzer{
	Name:       "lockdiscipline",
	Doc:        "forbid channel sends, callback invocations, and I/O while holding a mutex",
	Categories: []string{"lockheld"},
	Run:        runLockDiscipline,
}

func runLockDiscipline(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkLockedRegions(pass, fn.Body)
				}
			case *ast.FuncLit: // outside any function, e.g. a package var's initializer
				checkLockedRegions(pass, fn.Body)
			default:
				return true
			}
			return false
		})
	}
	return nil, nil
}

// checkLockedRegions reports, inside one function body, every blocking
// or re-entrant act done while lockRegions says a mutex is held.
func checkLockedRegions(pass *analysis.Pass, body *ast.BlockStmt) {
	lockRegions(pass.TypesInfo, body, func(n ast.Node, held map[string]string) {
		if len(held) == 0 {
			return
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if reason := blockingWhileLocked(pass, n); reason != "" {
				pass.Reportf(n.Pos(), "lockheld",
					"%s while holding %s; release the lock first (lock, copy, unlock, then act)",
					reason, anyHeld(held))
			}
		case *ast.SendStmt:
			// A send guarded by select-with-default cannot block, so it
			// cannot extend the critical section.
			if !sendInSelectWithDefault(pass, body, n) {
				pass.Reportf(n.Pos(), "lockheld",
					"channel send while holding %s can deadlock against the receiver; release the lock first",
					anyHeld(held))
			}
		}
	})
}

// lockOp classifies a call as a sync mutex operation: the method (Lock,
// RLock, Unlock or RUnlock; "" for any other call), the mutex's
// canonical identity ("pkgpath.Type.field" for a struct field,
// "pkgpath.var" for a package variable, "" for a local) and its
// spelling ("s.mu").
func lockOp(info *types.Info, call *ast.CallExpr) (method, id, expr string) {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name(), canonicalLockID(info, sel.X), types.ExprString(sel.X)
	}
	return "", "", ""
}

// canonicalLockID renders a mutex operand to its cross-function
// identity, or "" for a local.
func canonicalLockID(info *types.Info, x ast.Expr) string {
	var id *ast.Ident
	switch x := stripParens(x).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if _, isField := sel.Obj().(*types.Var); isField && namedKey(sel.Recv()) != "" {
				return namedKey(sel.Recv()) + "." + sel.Obj().Name()
			}
			return ""
		}
		id = x.Sel // qualified package var: pkg.Mu
	case *ast.Ident:
		id = x
	default:
		return ""
	}
	if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name()
	}
	return ""
}

// lockRegions is the one held-lock walk under lockdiscipline and
// lockorder. It visits every node of body in source order with the
// mutexes held there, keyed by spelling and valued by canonical
// identity (lockOp); a Lock or RLock joins the set after its own visit.
// An Unlock statement releases; a deferred Unlock keeps its region open
// to the end of the body. Other deferred calls are visited under the
// locks held at the defer statement: the walk is linear, with no paths,
// and that set stands in for the one held at return. Function literals
// and the call of a go statement run elsewhere and are walked with
// nothing held. visit must not keep the map.
func lockRegions(info *types.Info, body ast.Node, visit func(n ast.Node, held map[string]string)) {
	held := map[string]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			lockRegions(info, n.Body, visit)
			return false
		case *ast.GoStmt:
			lockRegions(info, n.Call, visit)
			return false
		case *ast.DeferStmt:
			if m, _, _ := lockOp(info, n.Call); m == "Unlock" || m == "RUnlock" {
				return false
			}
		}
		visit(n, held)
		if call, ok := n.(*ast.CallExpr); ok {
			switch m, id, x := lockOp(info, call); m {
			case "Lock", "RLock":
				held[x] = id
			case "Unlock", "RUnlock":
				delete(held, x)
			}
		}
		return true
	})
}

// anyHeld names one held mutex for the message (deterministically:
// lexicographically smallest key).
func anyHeld(held map[string]string) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// blockingWhileLocked classifies a call that must not run under a
// lock; returns "" if the call is benign.
func blockingWhileLocked(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[fun]
		if v, ok := obj.(*types.Var); ok {
			if _, isFn := v.Type().Underlying().(*types.Signature); isFn {
				return "invoking function value " + fun.Name
			}
		}
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		switch obj := obj.(type) {
		case *types.Var:
			// A func-typed field or variable: a callback we don't control.
			if _, isFn := obj.Type().Underlying().(*types.Signature); isFn {
				return "invoking callback " + fun.Sel.Name
			}
		case *types.Func:
			if obj.Pkg() == nil {
				return ""
			}
			switch obj.Pkg().Path() {
			case "net", "net/http":
				return "calling " + obj.Pkg().Name() + "." + obj.Name()
			}
			// Writes on an http.ResponseWriter render to the client
			// while locked.
			if namedKey(pass.TypesInfo.TypeOf(fun.X)) == "net/http.ResponseWriter" &&
				(obj.Name() == "Write" || obj.Name() == "WriteHeader" || obj.Name() == "WriteString") {
				return "writing the HTTP response"
			}
		}
	}
	return ""
}
