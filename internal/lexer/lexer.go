package lexer

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies a token.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Number // integer literal; Text is its spelling, Val and Suffix are set
	Punct  // operator or punctuation; Text is the spelling
	Keyword
)

// Token is a lexical token. The zero Token is an EOF token.
type Token struct {
	Kind   Kind
	Text   string
	Val    uint64 // for Number
	Suffix string // "", "u", "l", "ul" for Number
	Line   int
	Col    int
}

// keywords of the subset. Type names are identified in the parser, not here,
// because vector type names are open-ended (int4, ushort8, ...).
var keywords = map[string]bool{
	"kernel": true, "__kernel": true,
	"global": true, "__global": true,
	"local": true, "__local": true,
	"constant": true, "__constant": true,
	"private": true, "__private": true,
	"struct": true, "union": true, "typedef": true,
	"const": true, "volatile": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"break": true, "continue": true, "return": true, "void": true,
}

// Error is a lexical error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

// Lexer scans source text one token at a time, so a parser can pull
// tokens on demand instead of holding the whole stream. The zero value
// is not ready: start one with New.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a lexer positioned at the start of src.
func New(src string) Lexer { return Lexer{src: src, line: 1, col: 1} }

// Lex tokenizes src. It returns the token stream terminated by an EOF token,
// or the first error for malformed input.
func Lex(src string) ([]Token, error) {
	l := New(src)
	var toks []Token
	for {
		tok, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == EOF {
			return toks, nil
		}
	}
}

func (l *Lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// puncts lists the punctuators by first byte, longest first, so the
// first prefix match is the maximal munch. Every token's Text is one of
// these constants: a one-byte punctuator allocates no string.
var puncts = [256][]string{
	'<': {"<<=", "<<", "<=", "<"},
	'>': {">>=", ">>", ">=", ">"},
	'=': {"==", "="},
	'!': {"!=", "!"},
	'&': {"&&", "&=", "&"},
	'|': {"||", "|=", "|"},
	'+': {"+=", "++", "+"},
	'-': {"-=", "->", "--", "-"},
	'*': {"*=", "*"},
	'/': {"/=", "/"},
	'%': {"%=", "%"},
	'^': {"^=", "^"},
	'~': {"~"}, '(': {"("}, ')': {")"}, '[': {"["}, ']': {"]"},
	'{': {"{"}, '}': {"}"}, ';': {";"}, ',': {","}, '.': {"."},
	'?': {"?"}, ':': {":"},
}

// Next returns the next token: an EOF token, repeatedly, once the
// source is exhausted, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Line: line, Col: col}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		k := Ident
		if keywords[text] {
			k = Keyword
			text = strings.TrimPrefix(text, "__")
		}
		return Token{Kind: k, Text: text, Line: line, Col: col}, nil
	case isDigit(c):
		return l.number(line, col)
	}
	rest := l.src[l.pos:]
	for _, p := range puncts[c] {
		if strings.HasPrefix(rest, p) {
			l.pos += len(p) // no punctuator holds a newline
			l.col += len(p)
			return Token{Kind: Punct, Text: p, Line: line, Col: col}, nil
		}
	}
	return Token{}, l.errf("unexpected character %q", c)
}

func (l *Lexer) number(line, col int) (Token, error) {
	start := l.pos
	base := 10
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		base = 16
		l.advance()
		l.advance()
		if !isHexDigit(l.peek()) {
			return Token{}, l.errf("malformed hex literal")
		}
		for l.pos < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	digits := l.src[start:l.pos]
	if base == 16 {
		digits = digits[2:]
	}
	val, err := strconv.ParseUint(digits, base, 64)
	if err != nil {
		return Token{}, l.errf("integer literal out of range: %s", digits)
	}
	// Suffix: combinations of u/U and l/L (we accept single l only; "ll" is
	// not in the subset since long is already 64-bit).
	suffix := ""
	hasU, hasL := false, false
	for l.pos < len(l.src) {
		switch l.peek() {
		case 'u', 'U':
			if hasU {
				return Token{}, l.errf("duplicate u suffix")
			}
			hasU = true
			l.advance()
		case 'l', 'L':
			if hasL {
				return Token{}, l.errf("duplicate l suffix")
			}
			hasL = true
			l.advance()
		default:
			goto done
		}
	}
done:
	if hasU {
		suffix += "u"
	}
	if hasL {
		suffix += "l"
	}
	return Token{Kind: Number, Text: l.src[start:l.pos], Val: val, Suffix: suffix, Line: line, Col: col}, nil
}
