package cudalite

import (
	"fmt"
	"strconv"
	"strings"
)

// Format renders a program back to MiniCUDA source text. The output parses
// back to an equivalent tree (round-trip property, tested).
func Format(p *Program) string {
	var pr printer
	for i, f := range p.Funcs {
		if i > 0 {
			pr.line("")
		}
		pr.printFunc(f)
	}
	return pr.sb.String()
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(s string) {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("    ")
	}
	p.sb.WriteString(s)
	p.sb.WriteByte('\n')
}

func (p *printer) printFunc(f *FuncDecl) {
	var sig strings.Builder
	if q := f.Qual.String(); q != "" {
		sig.WriteString(q)
		sig.WriteByte(' ')
	}
	sig.WriteString(f.Ret.String())
	sig.WriteByte(' ')
	sig.WriteString(f.Name)
	sig.WriteByte('(')
	for i, par := range f.Params {
		if i > 0 {
			sig.WriteString(", ")
		}
		sig.WriteString(par.Type.String())
		sig.WriteByte(' ')
		sig.WriteString(par.Name)
	}
	sig.WriteString(") {")
	p.line(sig.String())
	p.indent++
	for _, s := range f.Body.Stmts {
		p.printStmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) printStmt(s Stmt) {
	switch x := s.(type) {
	case *Block:
		p.line("{")
		p.indent++
		for _, st := range x.Stmts {
			p.printStmt(st)
		}
		p.indent--
		p.line("}")
	case *DeclStmt:
		p.line(p.declString(x) + ";")
	case *ExprStmt:
		p.line(p.expr(x.X, 0) + ";")
	case *IfStmt:
		p.printIf(x)
	case *ForStmt:
		head := "for ("
		if x.Init != nil {
			switch in := x.Init.(type) {
			case *DeclStmt:
				head += p.declString(in)
			case *ExprStmt:
				head += p.expr(in.X, 0)
			}
		}
		head += "; "
		if x.Cond != nil {
			head += p.expr(x.Cond, 0)
		}
		head += "; "
		if x.Post != nil {
			head += p.expr(x.Post, 0)
		}
		head += ") {"
		p.line(head)
		p.indent++
		p.printBody(x.Body)
		p.indent--
		p.line("}")
	case *WhileStmt:
		p.line("while (" + p.expr(x.Cond, 0) + ") {")
		p.indent++
		p.printBody(x.Body)
		p.indent--
		p.line("}")
	case *ReturnStmt:
		if x.X != nil {
			p.line("return " + p.expr(x.X, 0) + ";")
		} else {
			p.line("return;")
		}
	case *BreakStmt:
		p.line("break;")
	case *ContinueStmt:
		p.line("continue;")
	case *LaunchStmt:
		head := x.Kernel + "<<<" + p.expr(x.Grid, 0) + ", " + p.expr(x.Block, 0)
		if x.Shmem != nil {
			head += ", " + p.expr(x.Shmem, 0)
		}
		head += ">>>("
		for i, a := range x.Args {
			if i > 0 {
				head += ", "
			}
			head += p.expr(a, 0)
		}
		head += ");"
		p.line(head)
	default:
		p.line(fmt.Sprintf("/* unknown stmt %T */", s))
	}
}

// printBody prints the statements of a loop/if body, flattening a Block so
// the brace layout stays canonical.
func (p *printer) printBody(s Stmt) {
	if b, ok := s.(*Block); ok {
		for _, st := range b.Stmts {
			p.printStmt(st)
		}
		return
	}
	p.printStmt(s)
}

func (p *printer) printIf(x *IfStmt) {
	p.line("if (" + p.expr(x.Cond, 0) + ") {")
	p.indent++
	p.printBody(x.Then)
	p.indent--
	if x.Else == nil {
		p.line("}")
		return
	}
	if ei, ok := x.Else.(*IfStmt); ok {
		// "} else if (...)": print the chain manually.
		p.printElseIfChain(ei)
		return
	}
	p.line("} else {")
	p.indent++
	p.printBody(x.Else)
	p.indent--
	p.line("}")
}

func (p *printer) printElseIfChain(x *IfStmt) {
	p.line("} else if (" + p.expr(x.Cond, 0) + ") {")
	p.indent++
	p.printBody(x.Then)
	p.indent--
	switch e := x.Else.(type) {
	case nil:
		p.line("}")
	case *IfStmt:
		p.printElseIfChain(e)
	default:
		p.line("} else {")
		p.indent++
		p.printBody(e)
		p.indent--
		p.line("}")
	}
}

func (p *printer) declString(x *DeclStmt) string {
	s := ""
	if x.Shared {
		s += "__shared__ "
	}
	s += x.Type.String()
	for i, d := range x.Decls {
		if i > 0 {
			s += ","
		}
		s += " " + d.Name
		if d.ArrayLen != nil {
			s += "[" + p.expr(d.ArrayLen, 0) + "]"
		}
		if d.Init != nil {
			s += " = " + p.expr(d.Init, 0)
		}
	}
	return s
}

// expr prints e with minimal parentheses: prec is the level (ast.go) the
// surrounding context binds at, and a looser sub-expression gets parens.
func (p *printer) expr(e Expr, prec int) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *IntLit:
		return strconv.FormatInt(x.Val, 10)
	case *FloatLit:
		return formatFloat(x.Val)
	case *BoolLit:
		if x.Val {
			return "true"
		}
		return "false"
	case *NullLit:
		return "NULL"
	case *StrLit:
		return strconv.Quote(x.Val)
	case *Unary:
		op, inner := x.Op.String(), p.expr(x.X, precUnary)
		if strings.HasPrefix(inner, op[len(op)-1:]) {
			op += " " // "- -y" is not "--y", and "& &p" is not "&&p"
		}
		return parenIf(prec > precUnary, op+inner)
	case *Postfix:
		return parenIf(prec > precPostfix, p.expr(x.X, precPostfix)+x.Op.String())
	case *Binary:
		bp := ops[x.Op].prec
		s := p.expr(x.L, bp) + " " + x.Op.String() + " " + p.expr(x.R, bp+1)
		return parenIf(prec > bp, s)
	case *Assign:
		s := p.expr(x.L, precUnary) + " " + x.Op.String() + " " + p.expr(x.R, precAssign)
		return parenIf(prec > precAssign, s)
	case *Cond:
		s := p.expr(x.C, precTernary+1) + " ? " + p.expr(x.T, precTernary) + " : " + p.expr(x.E, precTernary)
		return parenIf(prec > precTernary, s)
	case *Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = p.expr(a, 0)
		}
		return x.Fun + "(" + strings.Join(args, ", ") + ")"
	case *Index:
		return p.expr(x.X, precPostfix) + "[" + p.expr(x.Idx, 0) + "]"
	case *Member:
		return p.expr(x.X, precPostfix) + "." + x.Name
	case *Cast:
		return parenIf(prec > precUnary, "("+x.Type.String()+")"+p.expr(x.X, precUnary))
	case *Paren:
		return "(" + p.expr(x.X, 0) + ")"
	}
	return fmt.Sprintf("/* unknown expr %T */", e)
}

func parenIf(cond bool, s string) string {
	if cond {
		return "(" + s + ")"
	}
	return s
}

// formatFloat prints a float literal that re-parses as FLOATLIT.
func formatFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
