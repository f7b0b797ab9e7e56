package cudalite

import (
	"fmt"
	"strings"
)

// SyntaxError is a lexing or parsing error with a source position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns MiniCUDA source into tokens. Comments (// and /* */) are
// skipped. The lexer is used by the parser but is exported for tools that
// only need token streams (e.g. resource-usage scanning).
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the entire source, excluding the trailing EOF token.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	toks := make([]Token, 0, len(src)/4) // about one token per four bytes of source
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &SyntaxError{start, "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func (l *Lexer) pos() Pos { return Pos{l.line, l.col} }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token, or an EOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && (isIdentStart(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: pos}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peek2())):
		return l.lexNumber(pos)
	case c == '"':
		return l.lexString(pos)
	}
	return l.lexOperator(pos)
}

func (l *Lexer) lexNumber(pos Pos) (Token, error) {
	start := l.off
	isFloat := false
	// Hex literals.
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advance()
		l.advance()
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
		return Token{Kind: INTLIT, Text: l.src[start:l.off], Pos: pos}, nil
	}
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		isFloat = true
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save := l.off
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			isFloat = true
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		} else {
			// Not an exponent; back out (e.g. "1else" is 1, then ident).
			l.off = save
		}
	}
	// Float suffix 'f' as in 0.5f.
	if l.peek() == 'f' || l.peek() == 'F' {
		isFloat = true
		l.advance()
	}
	text := l.src[start:l.off]
	kind := INTLIT
	if isFloat {
		kind = FLOATLIT
		text = strings.TrimSuffix(strings.TrimSuffix(text, "f"), "F")
	}
	return Token{Kind: kind, Text: text, Pos: pos}, nil
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) lexString(pos Pos) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for l.off < len(l.src) {
		c := l.advance()
		switch c {
		case '"':
			return Token{Kind: STRINGLIT, Text: sb.String(), Pos: pos}, nil
		case '\\':
			if l.off >= len(l.src) {
				return Token{}, &SyntaxError{pos, "unterminated string"}
			}
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"':
				sb.WriteByte(e)
			default:
				return Token{}, &SyntaxError{pos, fmt.Sprintf("bad escape \\%c", e)}
			}
		default:
			sb.WriteByte(c)
		}
	}
	return Token{}, &SyntaxError{pos, "unterminated string"}
}

// lexOperator matches the longest punctuation token at the cursor.
func (l *Lexer) lexOperator(pos Pos) (Token, error) {
	rest := l.src[l.off:]
	for _, k := range punct[rest[0]] {
		if s := kindNames[k]; strings.HasPrefix(rest, s) {
			l.off += len(s) // punctuation holds no newline
			l.col += len(s)
			return Token{Kind: k, Text: s, Pos: pos}, nil
		}
	}
	return Token{}, &SyntaxError{pos, fmt.Sprintf("unexpected character %q", rest[0])}
}
