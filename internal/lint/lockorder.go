package lint

// lockorder builds the module's mutex-acquisition-order graph and
// reports anything that can deadlock — or that violates one of the
// repo's documented lock-nesting contracts even when today's code
// cannot deadlock yet.
//
// Per package (Run), every function gets lockdiscipline's walk
// (lockRegions), which records each acquisition and each static call
// together with the canonical identities held at that point
// ("pkgpath.Type.field" for struct mutexes, "pkgpath.var" for package
// ones; locals are skipped). A function literal's acquisitions count
// for its enclosing function, but without the enclosing held set, since
// the closure usually runs elsewhere.
//
// Finish merges all packages, closes each function's may-acquire set
// over the call graph, and materializes order edges: held H at an
// acquisition of L yields H→L; held H at a call whose callee
// may-acquire L yields H→L at the call site (caller-side attribution
// covers chains without propagating entry contexts). Then:
//
//   lockcycle  — the edge participates in a strongly connected
//     component of the order graph (including self-edges: re-acquiring
//     a held mutex);
//   lockinvert — a two-lock component with a dominant direction; the
//     minority edges are reported (the likely bug is the rare path);
//   lockpair   — the edge violates a declared contract from
//     lockOrderContracts (pairs never held together), the
//     machine-checked form of the comments in internal/replay and
//     internal/cluster.
//
// Soundness caveats (DESIGN.md §11): lock identity is per-field, not
// per-instance — two distinct Server values' mu fields are one node —
// and the held-set walk is linear (no path sensitivity), both biased
// toward over-reporting; dynamic calls contribute no edges, biased
// toward under-reporting.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"flep/internal/lint/analysis"
)

var LockOrderAnalyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "build the global mutex-acquisition-order graph; report cycles, inverted dominant orders, and contract violations",
	Categories: []string{"lockcycle", "lockinvert", "lockpair"},
	Run:        runLockOrder,
	Finish:     finishLockOrder,
}

type lockRef struct {
	pkgSub string // substring of the lock's package path
	tail   string // "Type.field" or package var name
}

// lockContract is a pair of locks neither of which may be held while
// acquiring the other.
type lockContract struct {
	a, b lockRef
	why  string
}

// lockOrderContracts is the machine-checked form of the repo's
// documented nesting rules.
var lockOrderContracts = []lockContract{
	{lockRef{"internal/replay", "Recorder.mu"}, lockRef{"internal/obs", "Registry.mu"},
		"replay contract: the recorder mu must not be held across registry calls — scrape closures take it"},
	{lockRef{"internal/cluster", "Gateway.mu"}, lockRef{"internal/server", "Server.mu"},
		"cluster contract: the gateway node lock and an in-process shard lock must never nest"},
}

func (r lockRef) matches(lockID string) bool {
	suffix := "." + r.tail
	if !strings.HasSuffix(lockID, suffix) {
		return false
	}
	return strings.Contains(strings.TrimSuffix(lockID, suffix), r.pkgSub)
}

// lockAcq is one acquisition site with the locks already held there.
type lockAcq struct {
	Lock string
	Held []string
	Pos  token.Pos
}

// lockCallSite is one static call with the locks held at the call.
type lockCallSite struct {
	Callee string
	Held   []string
	Pos    token.Pos
}

// lockFuncFacts is one function's contribution, keyed by funcID.
type lockFuncFacts struct {
	Acqs  []lockAcq
	Calls []lockCallSite
}

// lockFacts is one package's Run result.
type lockFacts struct {
	Funcs map[string]*lockFuncFacts
}

func runLockOrder(pass *analysis.Pass) (any, error) {
	facts := &lockFacts{Funcs: map[string]*lockFuncFacts{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := &lockFuncFacts{}
			lockRegions(pass.TypesInfo, fd.Body, func(n ast.Node, held map[string]string) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				if method, id, _ := lockOp(pass.TypesInfo, call); method != "" {
					// A local mutex (id "") is invisible across functions.
					if id != "" && (method == "Lock" || method == "RLock") {
						ff.Acqs = append(ff.Acqs, lockAcq{Lock: id, Held: heldIDs(held), Pos: call.Pos()})
					}
				} else if callee := staticCalleeFunc(pass.TypesInfo, call); callee != nil {
					ff.Calls = append(ff.Calls, lockCallSite{Callee: funcIDOf(callee), Held: heldIDs(held), Pos: call.Pos()})
				}
			})
			facts.Funcs[funcIDOf(fn)] = ff
		}
	}
	return facts, nil
}

// heldIDs lists the canonical identities of the held mutexes, sorted,
// once each; locals are left out.
func heldIDs(held map[string]string) []string {
	var out []string
	for _, id := range held {
		if id != "" && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ------------------------------------------------------------ finish

// lockEdge is one order-graph edge occurrence.
type lockEdge struct {
	From, To string
	Pos      token.Pos
}

func finishLockOrder(results []analysis.Result, report func(analysis.Diagnostic)) {
	funcs := map[string]*lockFuncFacts{}
	for _, r := range results {
		facts, ok := r.Value.(*lockFacts)
		if !ok || facts == nil {
			continue
		}
		for id, ff := range facts.Funcs {
			funcs[id] = ff
		}
	}

	// may[fn] = locks fn may acquire, transitively over static calls.
	may := map[string]map[string]bool{}
	for id, ff := range funcs {
		set := map[string]bool{}
		for _, a := range ff.Acqs {
			set[a.Lock] = true
		}
		may[id] = set
	}
	for changed := true; changed; {
		changed = false
		for id, ff := range funcs {
			set := may[id]
			for _, c := range ff.Calls {
				for l := range may[c.Callee] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		}
	}

	// Materialize edges.
	var edges []lockEdge
	for _, id := range sortedKeys(funcs) {
		ff := funcs[id]
		for _, a := range ff.Acqs {
			// h == a.Lock yields a self-edge: immediate self-deadlock for
			// sync.Mutex, writer-starvation deadlock for RWMutex readers.
			for _, h := range a.Held {
				edges = append(edges, lockEdge{From: h, To: a.Lock, Pos: a.Pos})
			}
		}
		for _, c := range ff.Calls {
			if len(c.Held) == 0 {
				continue
			}
			for _, l := range sortedKeys(may[c.Callee]) {
				for _, h := range c.Held {
					edges = append(edges, lockEdge{From: h, To: l, Pos: c.Pos})
				}
			}
		}
	}

	// Contract violations.
	for _, e := range edges {
		for _, ct := range lockOrderContracts {
			if (ct.a.matches(e.From) && ct.b.matches(e.To)) ||
				(ct.b.matches(e.From) && ct.a.matches(e.To)) {
				report(analysis.Diagnostic{Pos: e.Pos, Category: "lockpair",
					Message: fmt.Sprintf("acquires %s while holding %s — %s", shortLock(e.To), shortLock(e.From), ct.why)})
			}
		}
	}

	// Cycle detection over the distinct-edge graph.
	adj := map[string]map[string]bool{}
	nodes := map[string]bool{}
	for _, e := range edges {
		nodes[e.From], nodes[e.To] = true, true
		if adj[e.From] == nil {
			adj[e.From] = map[string]bool{}
		}
		adj[e.From][e.To] = true
	}
	comp := lockSCC(nodes, adj)
	for _, e := range edges {
		if e.From == e.To {
			report(analysis.Diagnostic{Pos: e.Pos, Category: "lockcycle",
				Message: fmt.Sprintf("re-acquires %s while already holding it", shortLock(e.To))})
			continue
		}
		if comp[e.From] != comp[e.To] || comp[e.From] == 0 {
			continue
		}
		// Same non-trivial SCC: cycle. Two-lock components with a
		// dominant direction get the sharper inversion report.
		fwd, rev := 0, 0
		for _, e2 := range edges {
			if e2.From == e.From && e2.To == e.To {
				fwd++
			}
			if e2.From == e.To && e2.To == e.From {
				rev++
			}
		}
		if fwd < rev {
			report(analysis.Diagnostic{Pos: e.Pos, Category: "lockinvert",
				Message: fmt.Sprintf("acquires %s while holding %s, inverting the dominant %s→%s order (%d sites)",
					shortLock(e.To), shortLock(e.From), shortLock(e.To), shortLock(e.From), rev)})
		} else {
			report(analysis.Diagnostic{Pos: e.Pos, Category: "lockcycle",
				Message: fmt.Sprintf("acquisition edge %s→%s closes a lock-order cycle; a concurrent inverse acquisition deadlocks",
					shortLock(e.From), shortLock(e.To))})
		}
	}
}

// shortLock trims the module path prefix for readable messages.
func shortLock(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

func sortedKeys[M map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockSCC assigns a component number to every node in a non-trivial
// strongly connected component (nodes in singleton components without a
// self-loop get 0).
func lockSCC(nodes map[string]bool, adj map[string]map[string]bool) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	comp := map[string]int{}
	next, compID := 0, 0

	var visit func(string)
	visit = func(id string) {
		index[id] = next
		low[id] = next
		next++
		stack = append(stack, id)
		onStack[id] = true
		for t := range adj[id] {
			if _, seen := index[t]; !seen {
				visit(t)
				if low[t] < low[id] {
					low[id] = low[t]
				}
			} else if onStack[t] && index[t] < low[id] {
				low[id] = index[t]
			}
		}
		if low[id] == index[id] {
			var members []string
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				members = append(members, top)
				if top == id {
					break
				}
			}
			if len(members) > 1 {
				compID++
				for _, m := range members {
					comp[m] = compID
				}
			}
		}
	}
	for _, id := range sortedKeys(nodes) {
		if _, seen := index[id]; !seen {
			visit(id)
		}
	}
	return comp
}

// funcIDOf renders a stable textual key for a function object —
// "pkgpath.Func" or "pkgpath.(Recv).Method". Facts are keyed by it
// rather than by *types.Func because packages may be typechecked
// independently (fixture siblings), and object identity does not survive
// that boundary while the rendered ID does.
func funcIDOf(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name := "?"
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name()
		}
		return pkg + ".(" + name + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// staticCalleeFunc resolves a call expression to its target function
// when the target is fixed at compile time: a package function, or a
// method on a concrete named type. Interface methods, function values,
// and builtins resolve to nil.
func staticCalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := stripParens(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
			return fn
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// namedKey renders "pkgpath.Type" for a named type or a pointer to
// one, "" otherwise.
func namedKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}
