package cudalite

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("__global__ void f(int* a) { a[0] = 1; }")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KwGlobal, KwVoid, IDENT, LParen, KwInt, Star, IDENT, RParen,
		LBrace, IDENT, LBracket, INTLIT, RBracket, AssignTok, INTLIT, Semicolon, RBrace}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexLaunchChevrons(t *testing.T) {
	toks, err := Lex("k<<<n, m>>>(a);")
	if err != nil {
		t.Fatal(err)
	}
	var sawOpen, sawClose bool
	for _, tok := range toks {
		if tok.Kind == LaunchOpen {
			sawOpen = true
		}
		if tok.Kind == LaunchClose {
			sawClose = true
		}
	}
	if !sawOpen || !sawClose {
		t.Fatalf("launch chevrons not lexed: %v", kinds(toks))
	}
}

func TestLexShiftVsLaunch(t *testing.T) {
	toks, err := Lex("a << b >> c")
	if err != nil {
		t.Fatal(err)
	}
	got := kinds(toks)
	want := []Kind{IDENT, Shl, IDENT, Shr, IDENT}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		text string
	}{
		{"42", INTLIT, "42"},
		{"0x1F", INTLIT, "0x1F"},
		{"3.14", FLOATLIT, "3.14"},
		{"1e10", FLOATLIT, "1e10"},
		{"2.5e-3", FLOATLIT, "2.5e-3"},
		{"0.5f", FLOATLIT, "0.5"},
		{".25", FLOATLIT, ".25"},
		{"7f", FLOATLIT, "7"},
	}
	for _, c := range cases {
		toks, err := Lex(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if len(toks) != 1 || toks[0].Kind != c.kind || toks[0].Text != c.text {
			t.Errorf("Lex(%q) = %v (%q), want %v (%q)", c.src, toks[0].Kind, toks[0].Text, c.kind, c.text)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("a // line comment\n/* block\ncomment */ b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("comments not skipped: %v", toks)
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	_, err := Lex("a /* never closed")
	if err == nil {
		t.Fatal("no error for unterminated comment")
	}
	if !strings.Contains(err.Error(), "unterminated") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexBadCharacter(t *testing.T) {
	_, err := Lex("a @ b")
	if err == nil {
		t.Fatal("no error for @")
	}
	var se *SyntaxError
	if !asSyntaxError(err, &se) {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
}

func asSyntaxError(err error, out **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*out = se
	}
	return ok
}

func TestLexString(t *testing.T) {
	toks, err := Lex(`"hi\nthere"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != STRINGLIT || toks[0].Text != "hi\nthere" {
		t.Fatalf("got %v %q", toks[0].Kind, toks[0].Text)
	}
}

func TestLexKeywords(t *testing.T) {
	toks, err := Lex("unsigned int volatile const bool true false NULL")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KwUnsigned, KwInt, KwVolatile, KwConst, KwBool, KwTrue, KwFalse, KwNull}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Every keyword and punctuation spelled in kindNames lexes to exactly its
// own Kind, no Kind is left without a spelling, and operators that share a
// prefix split longest-first.
func TestEveryTokenLexesAsItself(t *testing.T) {
	for k := KwGlobal; k <= LaunchClose; k++ {
		s := kindNames[k]
		if s == "" {
			t.Errorf("Kind(%d) has no spelling in kindNames", int(k))
			continue
		}
		toks, err := Lex(s)
		if err != nil || len(toks) != 1 || toks[0].Kind != k || toks[0].Text != s {
			t.Errorf("Lex(%q) = %v, %v; want the single token %v", s, toks, err, k)
		}
	}
	splits := []struct {
		src string
		op  Kind
	}{
		{"a<<<b", LaunchOpen}, {"a>>>b", LaunchClose}, {"a<<b", Shl}, {"a>>b", Shr},
		{"a<=b", Le}, {"a<b", Lt}, {"a>=b", Ge}, {"a>b", Gt},
	}
	for _, c := range splits {
		toks, err := Lex(c.src)
		if err != nil || len(toks) != 3 || toks[0].Kind != IDENT || toks[1].Kind != c.op || toks[2].Kind != IDENT {
			t.Errorf("Lex(%q) = %v, %v; want identifier %v identifier", c.src, toks, err, c.op)
		}
	}
}
