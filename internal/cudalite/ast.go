package cudalite

// This file defines the MiniCUDA abstract syntax tree. Nodes carry the
// position of their first token for diagnostics. The tree is mutable on
// purpose: the FLEP transform (internal/transform) rewrites cloned trees.

// Node is the interface implemented by every AST node.
type Node interface {
	NodePos() Pos
}

// FuncQual is a CUDA function qualifier.
type FuncQual int

// Function qualifiers.
const (
	QualHost   FuncQual = iota // no qualifier: host function
	QualGlobal                 // __global__: kernel
	QualDevice                 // __device__: device helper
)

// String returns the CUDA spelling of the qualifier ("" for host).
func (q FuncQual) String() string {
	switch q {
	case QualGlobal:
		return "__global__"
	case QualDevice:
		return "__device__"
	default:
		return ""
	}
}

// BaseType is a scalar MiniCUDA type.
type BaseType int

// Base types.
const (
	TVoid BaseType = iota
	TInt
	TUInt
	TFloat
	TBool
)

// String returns the C spelling of the base type.
func (b BaseType) String() string {
	switch b {
	case TVoid:
		return "void"
	case TInt:
		return "int"
	case TUInt:
		return "unsigned int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	default:
		return "?"
	}
}

// Type is a possibly-qualified, possibly-pointer MiniCUDA type.
type Type struct {
	Base     BaseType
	Ptr      int // pointer depth: float* has Ptr 1
	Const    bool
	Volatile bool
}

// IsPointer reports whether the type is a pointer type.
func (t Type) IsPointer() bool { return t.Ptr > 0 }

// String returns the C spelling of the type.
func (t Type) String() string {
	s := ""
	if t.Const {
		s += "const "
	}
	if t.Volatile {
		s += "volatile "
	}
	s += t.Base.String()
	for i := 0; i < t.Ptr; i++ {
		s += "*"
	}
	return s
}

// Program is a parsed MiniCUDA translation unit.
type Program struct {
	Funcs []*FuncDecl
}

// Kernel returns the __global__ function named name, or nil.
func (p *Program) Kernel(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name && f.Qual == QualGlobal {
			return f
		}
	}
	return nil
}

// Func returns the function named name regardless of qualifier, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Param is one function parameter.
type Param struct {
	Type Type
	Name string
	Pos  Pos
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Qual   FuncQual
	Ret    Type
	Name   string
	Params []*Param
	Body   *Block
	Pos    Pos
}

// NodePos returns the declaration position.
func (f *FuncDecl) NodePos() Pos { return f.Pos }

// ---- Statements ----

// Stmt is any MiniCUDA statement.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a { ... } statement list.
type Block struct {
	Stmts []Stmt
	Pos   Pos
}

// Declarator is one name in a declaration statement, with optional fixed
// array size (ArrayLen non-nil) and optional initializer.
type Declarator struct {
	Name     string
	ArrayLen Expr // nil unless "name[len]"
	Init     Expr // nil if uninitialized
	Pos      Pos
}

// DeclStmt declares one or more variables of a common type.
// Shared marks __shared__ (per-CTA) storage.
type DeclStmt struct {
	Shared bool
	Type   Type
	Decls  []*Declarator
	Pos    Pos
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	X   Expr
	Pos Pos
}

// IfStmt is if (Cond) Then [else Else].
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
	Pos  Pos
}

// ForStmt is for (Init; Cond; Post) Body. Any of Init/Cond/Post may be nil.
type ForStmt struct {
	Init Stmt // DeclStmt or ExprStmt
	Cond Expr
	Post Expr
	Body Stmt
	Pos  Pos
}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Pos  Pos
}

// ReturnStmt returns from the enclosing function, optionally with a value.
type ReturnStmt struct {
	X   Expr // nil for bare return
	Pos Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos Pos }

// LaunchStmt is a host-side kernel launch: Kernel<<<Grid, Block[, Shmem]>>>(Args).
type LaunchStmt struct {
	Kernel string
	Grid   Expr
	Block  Expr
	Shmem  Expr // nil if absent
	Args   []Expr
	Pos    Pos
}

func (*Block) stmtNode()        {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*LaunchStmt) stmtNode()   {}

// NodePos implementations for statements.
func (s *Block) NodePos() Pos        { return s.Pos }
func (s *DeclStmt) NodePos() Pos     { return s.Pos }
func (s *ExprStmt) NodePos() Pos     { return s.Pos }
func (s *IfStmt) NodePos() Pos       { return s.Pos }
func (s *ForStmt) NodePos() Pos      { return s.Pos }
func (s *WhileStmt) NodePos() Pos    { return s.Pos }
func (s *ReturnStmt) NodePos() Pos   { return s.Pos }
func (s *BreakStmt) NodePos() Pos    { return s.Pos }
func (s *ContinueStmt) NodePos() Pos { return s.Pos }
func (s *LaunchStmt) NodePos() Pos   { return s.Pos }

// ---- Expressions ----

// Expr is any MiniCUDA expression.
type Expr interface {
	Node
	exprNode()
}

// Op identifies a unary, binary, or assignment operator.
type Op int

// Operators, in four contiguous ranges the parser looks tokens up in: binary
// OpAdd..OpShr, prefix OpNeg..OpPreDec, postfix OpPostInc..OpPostDec and
// assignment OpAssign..OpDivAssign.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpRem
	OpLt
	OpGt
	OpLe
	OpGe
	OpEq
	OpNe
	OpAnd // &&
	OpOr  // ||
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr

	OpNeg    // unary -
	OpNot    // unary !
	OpBitNot // unary ~
	OpDeref  // unary *
	OpAddr   // unary &
	OpPreInc
	OpPreDec

	OpPostInc
	OpPostDec

	OpAssign
	OpAddAssign
	OpSubAssign
	OpMulAssign
	OpDivAssign
)

// Precedence levels, loosest first: the parser climbs and the printer
// parenthesizes by the same scale, and prefix and postfix operators sit
// above every binary one because their levels are declared after.
const (
	precAssign = iota + 1
	precTernary
	precOr
	precAnd
	precBitOr
	precBitXor
	precBitAnd
	precEq
	precRel
	precShift
	precAdd
	precMul
	precUnary // prefix operators and casts
	precPostfix
)

// ops gives each operator its token (spelled once, in kindNames) and, if it
// is binary, its precedence level.
var ops = [...]struct {
	tok  Kind
	prec int
}{
	OpAdd: {Plus, precAdd}, OpSub: {Minus, precAdd},
	OpMul: {Star, precMul}, OpDiv: {Slash, precMul}, OpRem: {Percent, precMul},
	OpLt: {Lt, precRel}, OpGt: {Gt, precRel}, OpLe: {Le, precRel}, OpGe: {Ge, precRel},
	OpEq: {Eq, precEq}, OpNe: {Ne, precEq},
	OpAnd: {AndAnd, precAnd}, OpOr: {OrOr, precOr},
	OpBitAnd: {Amp, precBitAnd}, OpBitOr: {Pipe, precBitOr}, OpBitXor: {Caret, precBitXor},
	OpShl: {Shl, precShift}, OpShr: {Shr, precShift},

	OpNeg: {tok: Minus}, OpNot: {tok: Not}, OpBitNot: {tok: Tilde},
	OpDeref: {tok: Star}, OpAddr: {tok: Amp}, OpPreInc: {tok: Inc}, OpPreDec: {tok: Dec},
	OpPostInc: {tok: Inc}, OpPostDec: {tok: Dec},
	OpAssign: {tok: AssignTok}, OpAddAssign: {tok: PlusAssign}, OpSubAssign: {tok: MinusAssign},
	OpMulAssign: {tok: StarAssign}, OpDivAssign: {tok: SlashAssign},
}

// String returns the C spelling of the operator.
func (o Op) String() string { return kindNames[ops[o].tok] }

// opFor returns the operator in lo..hi whose token is k.
func opFor(k Kind, lo, hi Op) (Op, bool) {
	for o := lo; o <= hi; o++ {
		if ops[o].tok == k {
			return o, true
		}
	}
	return 0, false
}

// Ident is a name reference.
type Ident struct {
	Name string
	Pos  Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Val int64
	Pos Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Val float64
	Pos Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Val bool
	Pos Pos
}

// NullLit is the NULL pointer literal.
type NullLit struct{ Pos Pos }

// StrLit is a string literal (used for kernel names in transformed host
// code; device code has no string type).
type StrLit struct {
	Val string
	Pos Pos
}

// Unary is a prefix operator application (including * and &).
type Unary struct {
	Op  Op
	X   Expr
	Pos Pos
}

// Postfix is x++ or x--.
type Postfix struct {
	Op  Op // OpPostInc or OpPostDec
	X   Expr
	Pos Pos
}

// Binary is a binary operator application.
type Binary struct {
	Op   Op
	L, R Expr
	Pos  Pos
}

// Assign is an assignment expression (=, +=, -=, *=, /=).
type Assign struct {
	Op   Op
	L, R Expr
	Pos  Pos
}

// Cond is the ternary Cond ? Then : Else.
type Cond struct {
	C, T, E Expr
	Pos     Pos
}

// Call is a function or builtin call by name.
type Call struct {
	Fun  string
	Args []Expr
	Pos  Pos
}

// Index is X[Idx].
type Index struct {
	X, Idx Expr
	Pos    Pos
}

// Member is X.Name (used for threadIdx.x and friends).
type Member struct {
	X    Expr
	Name string
	Pos  Pos
}

// Cast is (Type)X.
type Cast struct {
	Type Type
	X    Expr
	Pos  Pos
}

// Paren preserves explicit parentheses for faithful printing.
type Paren struct {
	X   Expr
	Pos Pos
}

func (*Ident) exprNode()    {}
func (*IntLit) exprNode()   {}
func (*FloatLit) exprNode() {}
func (*BoolLit) exprNode()  {}
func (*NullLit) exprNode()  {}
func (*StrLit) exprNode()   {}
func (*Unary) exprNode()    {}
func (*Postfix) exprNode()  {}
func (*Binary) exprNode()   {}
func (*Assign) exprNode()   {}
func (*Cond) exprNode()     {}
func (*Call) exprNode()     {}
func (*Index) exprNode()    {}
func (*Member) exprNode()   {}
func (*Cast) exprNode()     {}
func (*Paren) exprNode()    {}

// NodePos implementations for expressions.
func (e *Ident) NodePos() Pos    { return e.Pos }
func (e *IntLit) NodePos() Pos   { return e.Pos }
func (e *FloatLit) NodePos() Pos { return e.Pos }
func (e *BoolLit) NodePos() Pos  { return e.Pos }
func (e *NullLit) NodePos() Pos  { return e.Pos }
func (e *StrLit) NodePos() Pos   { return e.Pos }
func (e *Unary) NodePos() Pos    { return e.Pos }
func (e *Postfix) NodePos() Pos  { return e.Pos }
func (e *Binary) NodePos() Pos   { return e.Pos }
func (e *Assign) NodePos() Pos   { return e.Pos }
func (e *Cond) NodePos() Pos     { return e.Pos }
func (e *Call) NodePos() Pos     { return e.Pos }
func (e *Index) NodePos() Pos    { return e.Pos }
func (e *Member) NodePos() Pos   { return e.Pos }
func (e *Cast) NodePos() Pos     { return e.Pos }
func (e *Paren) NodePos() Pos    { return e.Pos }
