package cudalite

// Inspect traverses the subtree rooted at n in depth-first order, calling f
// for each node. If f returns false for a node, its children are skipped.
// A nil node is ignored, so callers may pass optional fields directly.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *FuncDecl:
		if x.Body != nil { // a nil *Block would not be a nil Node
			Inspect(x.Body, f)
		}
	case *Block:
		for _, s := range x.Stmts {
			Inspect(s, f)
		}
	case *DeclStmt:
		for _, d := range x.Decls {
			Inspect(d.ArrayLen, f)
			Inspect(d.Init, f)
		}
	case *ExprStmt:
		Inspect(x.X, f)
	case *IfStmt:
		Inspect(x.Cond, f)
		Inspect(x.Then, f)
		Inspect(x.Else, f)
	case *ForStmt:
		Inspect(x.Init, f)
		Inspect(x.Cond, f)
		Inspect(x.Post, f)
		Inspect(x.Body, f)
	case *WhileStmt:
		Inspect(x.Cond, f)
		Inspect(x.Body, f)
	case *ReturnStmt:
		Inspect(x.X, f)
	case *LaunchStmt:
		Inspect(x.Grid, f)
		Inspect(x.Block, f)
		Inspect(x.Shmem, f)
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *Unary:
		Inspect(x.X, f)
	case *Postfix:
		Inspect(x.X, f)
	case *Binary:
		Inspect(x.L, f)
		Inspect(x.R, f)
	case *Assign:
		Inspect(x.L, f)
		Inspect(x.R, f)
	case *Cond:
		Inspect(x.C, f)
		Inspect(x.T, f)
		Inspect(x.E, f)
	case *Call:
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *Index:
		Inspect(x.X, f)
		Inspect(x.Idx, f)
	case *Member:
		Inspect(x.X, f)
	case *Cast:
		Inspect(x.X, f)
	case *Paren:
		Inspect(x.X, f)
	}
}

// Reachable returns fn followed by every function of p it transitively
// calls, each once, in the order the calls are met. Calls to names p does not
// define (builtins) are ignored.
func (p *Program) Reachable(fn *FuncDecl) []*FuncDecl {
	seen := map[string]bool{fn.Name: true}
	order := []*FuncDecl{fn}
	for i := 0; i < len(order); i++ {
		Inspect(order[i], func(n Node) bool {
			if c, ok := n.(*Call); ok && !seen[c.Fun] {
				seen[c.Fun] = true
				if callee := p.Func(c.Fun); callee != nil {
					order = append(order, callee)
				}
			}
			return true
		})
	}
	return order
}

// CloneProgram deep-copies a program so transforms never alias the input.
func CloneProgram(p *Program) *Program {
	out := &Program{Funcs: make([]*FuncDecl, len(p.Funcs))}
	for i, f := range p.Funcs {
		nf := *f
		nf.Params = make([]*Param, len(f.Params))
		for j, par := range f.Params {
			cp := *par
			nf.Params[j] = &cp
		}
		if f.Body != nil {
			nf.Body = RewriteStmt(f.Body, nil, nil).(*Block)
		}
		out.Funcs[i] = &nf
	}
	return out
}

// RewriteStmt deep-copies the statement tree at s, children first. Each
// copied node is offered to the hook for its class (expr for expressions,
// stmt for statements), and whatever a hook returns takes the node's place
// in the copy; a hook that returns nil, or a nil hook, keeps the node. With
// both hooks nil it is a plain deep copy. This is the one traversal that
// assigns child links: Clone and both FLEP rewrites are calls to it.
func RewriteStmt(s Stmt, expr func(Expr) Expr, stmt func(Stmt) Stmt) Stmt {
	return rewriter{expr, stmt}.stmt(s)
}

type rewriter struct {
	onExpr func(Expr) Expr
	onStmt func(Stmt) Stmt
}

func (r rewriter) stmt(s Stmt) Stmt {
	var c Stmt
	switch x := s.(type) {
	case nil:
		return nil
	case *Block:
		n := *x
		n.Stmts = make([]Stmt, len(x.Stmts))
		for i, st := range x.Stmts {
			n.Stmts[i] = r.stmt(st)
		}
		c = &n
	case *DeclStmt:
		n := *x
		n.Decls = make([]*Declarator, len(x.Decls))
		for i, d := range x.Decls {
			n.Decls[i] = &Declarator{Name: d.Name, ArrayLen: r.expr(d.ArrayLen), Init: r.expr(d.Init), Pos: d.Pos}
		}
		c = &n
	case *ExprStmt:
		c = &ExprStmt{X: r.expr(x.X), Pos: x.Pos}
	case *IfStmt:
		c = &IfStmt{Cond: r.expr(x.Cond), Then: r.stmt(x.Then), Else: r.stmt(x.Else), Pos: x.Pos}
	case *ForStmt:
		c = &ForStmt{Init: r.stmt(x.Init), Cond: r.expr(x.Cond), Post: r.expr(x.Post), Body: r.stmt(x.Body), Pos: x.Pos}
	case *WhileStmt:
		c = &WhileStmt{Cond: r.expr(x.Cond), Body: r.stmt(x.Body), Pos: x.Pos}
	case *ReturnStmt:
		c = &ReturnStmt{X: r.expr(x.X), Pos: x.Pos}
	case *BreakStmt:
		c = &BreakStmt{Pos: x.Pos}
	case *ContinueStmt:
		c = &ContinueStmt{Pos: x.Pos}
	case *LaunchStmt:
		c = &LaunchStmt{Kernel: x.Kernel, Grid: r.expr(x.Grid), Block: r.expr(x.Block), Shmem: r.expr(x.Shmem), Args: r.exprs(x.Args), Pos: x.Pos}
	default:
		panic("cudalite: unknown statement type in RewriteStmt")
	}
	if r.onStmt != nil {
		if repl := r.onStmt(c); repl != nil {
			return repl
		}
	}
	return c
}

func (r rewriter) exprs(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = r.expr(e)
	}
	return out
}

func (r rewriter) expr(e Expr) Expr {
	var c Expr
	switch x := e.(type) {
	case nil:
		return nil
	case *Ident:
		c = &Ident{Name: x.Name, Pos: x.Pos}
	case *IntLit:
		c = &IntLit{Val: x.Val, Pos: x.Pos}
	case *FloatLit:
		c = &FloatLit{Val: x.Val, Pos: x.Pos}
	case *BoolLit:
		c = &BoolLit{Val: x.Val, Pos: x.Pos}
	case *NullLit:
		c = &NullLit{Pos: x.Pos}
	case *StrLit:
		c = &StrLit{Val: x.Val, Pos: x.Pos}
	case *Unary:
		c = &Unary{Op: x.Op, X: r.expr(x.X), Pos: x.Pos}
	case *Postfix:
		c = &Postfix{Op: x.Op, X: r.expr(x.X), Pos: x.Pos}
	case *Binary:
		c = &Binary{Op: x.Op, L: r.expr(x.L), R: r.expr(x.R), Pos: x.Pos}
	case *Assign:
		c = &Assign{Op: x.Op, L: r.expr(x.L), R: r.expr(x.R), Pos: x.Pos}
	case *Cond:
		c = &Cond{C: r.expr(x.C), T: r.expr(x.T), E: r.expr(x.E), Pos: x.Pos}
	case *Call:
		c = &Call{Fun: x.Fun, Args: r.exprs(x.Args), Pos: x.Pos}
	case *Index:
		c = &Index{X: r.expr(x.X), Idx: r.expr(x.Idx), Pos: x.Pos}
	case *Member:
		c = &Member{X: r.expr(x.X), Name: x.Name, Pos: x.Pos}
	case *Cast:
		c = &Cast{Type: x.Type, X: r.expr(x.X), Pos: x.Pos}
	case *Paren:
		c = &Paren{X: r.expr(x.X), Pos: x.Pos}
	default:
		panic("cudalite: unknown expression type in RewriteStmt")
	}
	if r.onExpr != nil {
		if repl := r.onExpr(c); repl != nil {
			return repl
		}
	}
	return c
}
