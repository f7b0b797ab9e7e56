package cudalite

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for MiniCUDA.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a full translation unit.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	prog := &Program{}
	for !p.atEOF() {
		f, err := p.parseFunc()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	return prog, nil
}

// ParseKernel parses a source containing exactly one function and returns it.
func ParseKernel(src string) (*FuncDecl, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Funcs) != 1 {
		return nil, fmt.Errorf("cudalite: expected exactly one function, got %d", len(prog.Funcs))
	}
	return prog.Funcs[0], nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) cur() Token {
	if p.atEOF() {
		last := Pos{0, 0}
		if len(p.toks) > 0 {
			last = p.toks[len(p.toks)-1].Pos
		}
		return Token{Kind: EOF, Pos: last}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekKind(ahead int) Kind {
	if p.pos+ahead >= len(p.toks) {
		return EOF
	}
	return p.toks[p.pos+ahead].Kind
}

func (p *Parser) next() Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, &SyntaxError{t.Pos, fmt.Sprintf("expected %s, found %s", k, t)}
	}
	p.pos++
	return t, nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return &SyntaxError{p.cur().Pos, fmt.Sprintf(format, args...)}
}

// isTypeStart reports whether kind can begin a type.
func isTypeStart(k Kind) bool {
	switch k {
	case KwVoid, KwInt, KwUnsigned, KwFloat, KwBool, KwConst, KwVolatile:
		return true
	}
	return false
}

// parseType parses [const] [volatile] base [*]*.
func (p *Parser) parseType() (Type, error) {
	var t Type
	for {
		switch p.cur().Kind {
		case KwConst:
			p.next()
			t.Const = true
			continue
		case KwVolatile:
			p.next()
			t.Volatile = true
			continue
		}
		break
	}
	switch p.cur().Kind {
	case KwVoid:
		p.next()
		t.Base = TVoid
	case KwInt:
		p.next()
		t.Base = TInt
	case KwUnsigned:
		p.next()
		p.accept(KwInt) // "unsigned" or "unsigned int"
		t.Base = TUInt
	case KwFloat:
		p.next()
		t.Base = TFloat
	case KwBool:
		p.next()
		t.Base = TBool
	default:
		return t, p.errorf("expected type, found %s", p.cur())
	}
	for p.accept(Star) {
		t.Ptr++
	}
	return t, nil
}

func (p *Parser) parseFunc() (*FuncDecl, error) {
	f := &FuncDecl{Pos: p.cur().Pos}
	switch p.cur().Kind {
	case KwGlobal:
		p.next()
		f.Qual = QualGlobal
	case KwDevice:
		p.next()
		f.Qual = QualDevice
	}
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	f.Ret = ret
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	f.Name = name.Text
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if !p.accept(RParen) {
		for {
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			pn, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, &Param{Type: pt, Name: pn.Text, Pos: pn.Pos})
			if p.accept(Comma) {
				continue
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			break
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	open, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: open.Pos}
	for p.cur().Kind != RBrace {
		if p.atEOF() {
			return nil, &SyntaxError{open.Pos, "unterminated block"}
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case LBrace:
		return p.parseBlock()
	case KwShared:
		p.next()
		return p.parseDecl(true, t.Pos)
	case KwIf:
		return p.parseIf()
	case KwFor:
		return p.parseFor()
	case KwWhile:
		return p.parseWhile()
	case KwReturn:
		p.next()
		rs := &ReturnStmt{Pos: t.Pos}
		if p.cur().Kind != Semicolon {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = x
		}
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return rs, nil
	case KwBreak:
		p.next()
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: t.Pos}, nil
	case KwContinue:
		p.next()
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: t.Pos}, nil
	case Semicolon:
		// Empty statement: represent as empty block.
		p.next()
		return &Block{Pos: t.Pos}, nil
	}
	if isTypeStart(t.Kind) {
		return p.parseDecl(false, t.Pos)
	}
	// Kernel launch: IDENT <<<
	if t.Kind == IDENT && p.peekKind(1) == LaunchOpen {
		return p.parseLaunch()
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	return &ExprStmt{X: x, Pos: t.Pos}, nil
}

func (p *Parser) parseDecl(shared bool, pos Pos) (Stmt, error) {
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{Shared: shared, Type: typ, Pos: pos}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		d := &Declarator{Name: name.Text, Pos: name.Pos}
		if p.accept(LBracket) {
			ln, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.ArrayLen = ln
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
		}
		if p.accept(AssignTok) {
			init, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		ds.Decls = append(ds.Decls, d)
		if p.accept(Comma) {
			continue
		}
		break
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next() // if
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: t.Pos}
	if p.accept(KwElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	fs := &ForStmt{Pos: t.Pos}
	if !p.accept(Semicolon) {
		if isTypeStart(p.cur().Kind) {
			init, err := p.parseDecl(false, p.cur().Pos)
			if err != nil {
				return nil, err
			}
			fs.Init = init
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Init = &ExprStmt{X: x, Pos: x.NodePos()}
			if _, err := p.expect(Semicolon); err != nil {
				return nil, err
			}
		}
	}
	if !p.accept(Semicolon) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
		if _, err := p.expect(Semicolon); err != nil {
			return nil, err
		}
	}
	if p.cur().Kind != RParen {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next() // while
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Pos: t.Pos}, nil
}

func (p *Parser) parseLaunch() (Stmt, error) {
	name := p.next() // IDENT
	p.next()         // <<<
	ls := &LaunchStmt{Kernel: name.Text, Pos: name.Pos}
	grid, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	ls.Grid = grid
	if _, err := p.expect(Comma); err != nil {
		return nil, err
	}
	blk, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	ls.Block = blk
	if p.accept(Comma) {
		sh, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		ls.Shmem = sh
	}
	if _, err := p.expect(LaunchClose); err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if !p.accept(RParen) {
		for {
			a, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			ls.Args = append(ls.Args, a)
			if p.accept(Comma) {
				continue
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(Semicolon); err != nil {
		return nil, err
	}
	return ls, nil
}

// ---- Expressions (precedence climbing) ----

// parseExpr parses a full expression including comma-free assignments.
func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	op, ok := opFor(p.cur().Kind, OpAssign, OpDivAssign)
	if !ok {
		return lhs, nil
	}
	t := p.next()
	rhs, err := p.parseAssignExpr() // right-associative
	if err != nil {
		return nil, err
	}
	if !isLValue(lhs) {
		return nil, &SyntaxError{t.Pos, "left side of assignment is not assignable"}
	}
	return &Assign{Op: op, L: lhs, R: rhs, Pos: t.Pos}, nil
}

// isLValue reports whether e may appear on the left of an assignment.
func isLValue(e Expr) bool {
	switch x := e.(type) {
	case *Ident, *Index, *Member:
		return true
	case *Unary:
		return x.Op == OpDeref
	case *Paren:
		return isLValue(x.X)
	}
	return false
}

func (p *Parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(precOr)
	if err != nil {
		return nil, err
	}
	if !p.accept(Question) {
		return c, nil
	}
	th, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	el, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, T: th, E: el, Pos: c.NodePos()}, nil
}

// parseBinary climbs the binary operators binding at least as tightly as
// minPrec; every level is left-associative.
func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op, ok := opFor(p.cur().Kind, OpAdd, OpShr)
		if !ok || ops[op].prec < minPrec {
			return lhs, nil
		}
		t := p.next()
		rhs, err := p.parseBinary(ops[op].prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, L: lhs, R: rhs, Pos: t.Pos}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if op, ok := opFor(t.Kind, OpNeg, OpPreDec); ok {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: op, X: x, Pos: t.Pos}, nil
	}
	// Cast or parenthesized expression.
	if t.Kind == LParen && isTypeStart(p.peekKind(1)) {
		p.next() // (
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Cast{Type: typ, X: x, Pos: t.Pos}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.Kind {
		case LBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			x = &Index{X: x, Idx: idx, Pos: t.Pos}
		case Dot:
			p.next()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &Member{X: x, Name: name.Text, Pos: t.Pos}
		default:
			op, ok := opFor(t.Kind, OpPostInc, OpPostDec)
			if !ok {
				return x, nil
			}
			p.next()
			x = &Postfix{Op: op, X: x, Pos: t.Pos}
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INTLIT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 0, 64)
		if err != nil {
			return nil, &SyntaxError{t.Pos, "bad integer literal " + t.Text}
		}
		return &IntLit{Val: v, Pos: t.Pos}, nil
	case FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, &SyntaxError{t.Pos, "bad float literal " + t.Text}
		}
		return &FloatLit{Val: v, Pos: t.Pos}, nil
	case KwTrue:
		p.next()
		return &BoolLit{Val: true, Pos: t.Pos}, nil
	case KwFalse:
		p.next()
		return &BoolLit{Val: false, Pos: t.Pos}, nil
	case KwNull:
		p.next()
		return &NullLit{Pos: t.Pos}, nil
	case STRINGLIT:
		p.next()
		return &StrLit{Val: t.Text, Pos: t.Pos}, nil
	case IDENT:
		p.next()
		if p.cur().Kind == LParen {
			p.next()
			c := &Call{Fun: t.Text, Pos: t.Pos}
			if !p.accept(RParen) {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					c.Args = append(c.Args, a)
					if p.accept(Comma) {
						continue
					}
					if _, err := p.expect(RParen); err != nil {
						return nil, err
					}
					break
				}
			}
			return c, nil
		}
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	case LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return &Paren{X: x, Pos: t.Pos}, nil
	}
	return nil, &SyntaxError{t.Pos, fmt.Sprintf("unexpected %s in expression", t)}
}
