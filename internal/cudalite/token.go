// Package cudalite implements MiniCUDA, a CUDA-C dialect large enough to
// express the paper's eight benchmark kernels and the FLEP-transformed
// forms of Figure 4. It provides a lexer, parser, AST, pretty-printer and a
// SIMT interpreter used to validate that FLEP's source-to-source
// transformation preserves kernel semantics.
package cudalite

import (
	"fmt"
	"sort"
)

// Kind identifies a lexical token class.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT
	STRINGLIT

	// Keywords.
	KwGlobal // __global__
	KwDevice // __device__
	KwShared // __shared__
	KwVoid
	KwInt
	KwUnsigned
	KwFloat
	KwBool
	KwConst
	KwVolatile
	KwIf
	KwElse
	KwFor
	KwWhile
	KwReturn
	KwBreak
	KwContinue
	KwTrue
	KwFalse
	KwNull // NULL

	// Punctuation and operators.
	LParen    // (
	RParen    // )
	LBrace    // {
	RBrace    // }
	LBracket  // [
	RBracket  // ]
	Semicolon // ;
	Comma     // ,
	Dot       // .
	Question  // ?
	Colon     // :

	AssignTok   // =
	PlusAssign  // +=
	MinusAssign // -=
	StarAssign  // *=
	SlashAssign // /=

	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %
	Inc     // ++
	Dec     // --

	Lt  // <
	Gt  // >
	Le  // <=
	Ge  // >=
	Eq  // ==
	Ne  // !=
	Not // !

	AndAnd // &&
	OrOr   // ||
	Amp    // &
	Pipe   // |
	Caret  // ^
	Tilde  // ~
	Shl    // <<
	Shr    // >>

	LaunchOpen  // <<<
	LaunchClose // >>>
)

// kindNames is the only place a keyword or a punctuation token is spelled:
// the lexer's tables are derived from it and the printer writes an operator
// as its token's entry here.
var kindNames = [...]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "int literal",
	FLOATLIT: "float literal", STRINGLIT: "string literal",
	KwGlobal: "__global__", KwDevice: "__device__", KwShared: "__shared__",
	KwVoid: "void", KwInt: "int", KwUnsigned: "unsigned", KwFloat: "float",
	KwBool: "bool", KwConst: "const", KwVolatile: "volatile",
	KwIf: "if", KwElse: "else", KwFor: "for", KwWhile: "while",
	KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	KwTrue: "true", KwFalse: "false", KwNull: "NULL",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBracket: "[", RBracket: "]", Semicolon: ";", Comma: ",", Dot: ".",
	Question: "?", Colon: ":",
	AssignTok: "=", PlusAssign: "+=", MinusAssign: "-=", StarAssign: "*=",
	SlashAssign: "/=",
	Plus:        "+", Minus: "-", Star: "*", Slash: "/", Percent: "%",
	Inc: "++", Dec: "--",
	Lt: "<", Gt: ">", Le: "<=", Ge: ">=", Eq: "==", Ne: "!=", Not: "!",
	AndAnd: "&&", OrOr: "||", Amp: "&", Pipe: "|", Caret: "^", Tilde: "~",
	Shl: "<<", Shr: ">>", LaunchOpen: "<<<", LaunchClose: ">>>",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// keywords maps each keyword's spelling to its kind; punct lists, by first
// byte, the punctuation kinds that begin with it, longest spelling first, so
// the first prefix match is the longest token.
var keywords, punct = func() (map[string]Kind, [256][]Kind) {
	kw := map[string]Kind{}
	for k := KwGlobal; k <= KwNull; k++ {
		kw[kindNames[k]] = k
	}
	var pn [256][]Kind
	for k := LParen; k <= LaunchClose; k++ {
		c := kindNames[k][0]
		pn[c] = append(pn[c], k)
	}
	for _, ks := range pn {
		sort.SliceStable(ks, func(i, j int) bool { return len(kindNames[ks[i]]) > len(kindNames[ks[j]]) })
	}
	return kw, pn
}()

// Pos is a source position (1-based line and column).
type Pos struct {
	Line, Col int
}

// String formats the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token with its source position and literal text.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// String formats the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, STRINGLIT:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
