// Package lexer implements a hand-written scanner for MiniC source text.
//
// The scanner converts a byte slice into a stream of tokens, tracking
// line/column positions and skipping // line comments and /* block
// comments. It never panics on malformed input; illegal bytes produce
// ILLEGAL tokens that the parser reports as errors.
package lexer

import (
	"fmt"
	"math"

	"reclose/internal/token"
)

// Error is a lexical error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans MiniC source text.
type Lexer struct {
	src    []byte
	offset int // reading offset of ch
	ch     byte
	line   int
	col    int
	errs   []*Error
}

// New returns a lexer over src.
func New(src []byte) *Lexer {
	l := &Lexer{src: src, line: 1, col: 0, offset: -1}
	l.next()
	return l
}

// Errors returns the lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

const eof = 0

func (l *Lexer) next() {
	if l.ch == '\n' {
		l.line++
		l.col = 0
	}
	l.offset++
	if l.offset >= len(l.src) {
		l.ch = eof
		l.offset = len(l.src)
		l.col++
		return
	}
	l.ch = l.src[l.offset]
	l.col++
}

func (l *Lexer) peek() byte {
	if l.offset+1 < len(l.src) {
		return l.src[l.offset+1]
	}
	return eof
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Offset: sat32(l.offset), Line: sat32(l.line), Column: sat32(l.col)}
}

// sat32 narrows a counter to a position field, saturating at
// math.MaxInt32 instead of wrapping to a negative value.
func sat32(v int) int32 { return int32(min(v, math.MaxInt32)) }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func isLetter(ch byte) bool {
	return 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || ch == '_'
}

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

func (l *Lexer) skipSpace() {
	for l.ch == ' ' || l.ch == '\t' || l.ch == '\n' || l.ch == '\r' {
		l.next()
	}
}

func (l *Lexer) scanIdent() string {
	start := l.offset
	for isLetter(l.ch) || isDigit(l.ch) {
		l.next()
	}
	return string(l.src[start:l.offset])
}

func (l *Lexer) scanNumber() string {
	start := l.offset
	for isDigit(l.ch) {
		l.next()
	}
	return string(l.src[start:l.offset])
}

// skipComment consumes a comment starting at '/'. It reports whether a
// comment was present.
func (l *Lexer) skipComment() bool {
	switch l.peek() {
	case '/':
		for l.ch != '\n' && l.ch != eof {
			l.next()
		}
		return true
	case '*':
		pos := l.pos()
		l.next() // consume '/'
		l.next() // consume '*'
		for {
			if l.ch == eof {
				l.errorf(pos, "unterminated block comment")
				return true
			}
			if l.ch == '*' && l.peek() == '/' {
				l.next()
				l.next()
				return true
			}
			l.next()
		}
	}
	return false
}

// Next returns the next token. At end of input it returns EOF tokens
// forever.
func (l *Lexer) Next() token.Token {
	for {
		l.skipSpace()
		if l.ch == '/' && (l.peek() == '/' || l.peek() == '*') {
			l.skipComment()
			continue
		}
		break
	}

	pos := l.pos()
	switch {
	case l.ch == eof:
		return token.Token{Kind: token.EOF, Pos: pos}
	case isLetter(l.ch):
		lit := l.scanIdent()
		kind := token.Lookup(lit)
		if kind != token.IDENT {
			return token.Token{Kind: kind, Pos: pos, Lit: lit}
		}
		return token.Token{Kind: token.IDENT, Pos: pos, Lit: lit}
	case isDigit(l.ch):
		lit := l.scanNumber()
		return token.Token{Kind: token.INT, Pos: pos, Lit: lit}
	}

	ch := l.ch
	l.next()
	two := func(next byte, withKind, withoutKind token.Kind) token.Token {
		if l.ch == next {
			l.next()
			return token.Token{Kind: withKind, Pos: pos}
		}
		return token.Token{Kind: withoutKind, Pos: pos}
	}

	switch ch {
	case '+':
		return token.Token{Kind: token.ADD, Pos: pos}
	case '-':
		return token.Token{Kind: token.SUB, Pos: pos}
	case '*':
		return token.Token{Kind: token.MUL, Pos: pos}
	case '/':
		return token.Token{Kind: token.QUO, Pos: pos}
	case '%':
		return token.Token{Kind: token.REM, Pos: pos}
	case '^':
		return token.Token{Kind: token.XOR, Pos: pos}
	case '&':
		return two('&', token.LAND, token.AND)
	case '|':
		return two('|', token.LOR, token.OR)
	case '!':
		return two('=', token.NEQ, token.NOT)
	case '=':
		return two('=', token.EQL, token.ASSIGN)
	case '<':
		if l.ch == '<' {
			l.next()
			return token.Token{Kind: token.SHL, Pos: pos}
		}
		return two('=', token.LEQ, token.LSS)
	case '>':
		if l.ch == '>' {
			l.next()
			return token.Token{Kind: token.SHR, Pos: pos}
		}
		return two('=', token.GEQ, token.GTR)
	case '(':
		return token.Token{Kind: token.LPAREN, Pos: pos}
	case ')':
		return token.Token{Kind: token.RPAREN, Pos: pos}
	case '{':
		return token.Token{Kind: token.LBRACE, Pos: pos}
	case '}':
		return token.Token{Kind: token.RBRACE, Pos: pos}
	case '[':
		return token.Token{Kind: token.LBRACK, Pos: pos}
	case ']':
		return token.Token{Kind: token.RBRACK, Pos: pos}
	case ',':
		return token.Token{Kind: token.COMMA, Pos: pos}
	case ';':
		return token.Token{Kind: token.SEMICOLON, Pos: pos}
	case ':':
		return token.Token{Kind: token.COLON, Pos: pos}
	case '.':
		return token.Token{Kind: token.DOT, Pos: pos}
	}

	l.errorf(pos, "illegal character %q", ch)
	return token.Token{Kind: token.ILLEGAL, Pos: pos, Lit: string(ch)}
}

// Scan tokenizes the whole of src, excluding the trailing EOF token.
func Scan(src []byte) ([]token.Token, []*Error) {
	l := New(src)
	var toks []token.Token
	for {
		t := l.Next()
		if t.Kind == token.EOF {
			break
		}
		toks = append(toks, t)
	}
	return toks, l.Errors()
}
