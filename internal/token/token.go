// Package token defines the lexical tokens of the MiniC language, the
// C-like imperative language accepted by the closing tool, together with
// source positions.
//
// MiniC is the concrete language over which the closing algorithm of
// Colby, Godefroid and Jagadeesan (PLDI 1998) is implemented in this
// repository. It provides exactly the statement classes the paper's
// abstract language assumes: assignments, conditionals, procedure calls,
// and termination statements, plus declarations for processes and
// communication objects.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// The list of token kinds.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	literalBeg
	IDENT // main
	INT   // 12345
	literalEnd

	operatorBeg
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	AND  // &
	OR   // |
	XOR  // ^
	SHL  // <<
	SHR  // >>
	LAND // &&
	LOR  // ||
	NOT  // !

	EQL // ==
	NEQ // !=
	LSS // <
	LEQ // <=
	GTR // >
	GEQ // >=

	ASSIGN // =

	LPAREN // (
	RPAREN // )
	LBRACE // {
	RBRACE // }
	LBRACK // [
	RBRACK // ]

	COMMA     // ,
	SEMICOLON // ;
	COLON     // :
	DOT       // .
	operatorEnd

	keywordBeg
	PROC     // proc
	PROCESS  // process
	ENV      // env
	CHAN     // chan
	SEM      // sem
	SHARED   // shared
	VAR      // var
	IF       // if
	ELSE     // else
	WHILE    // while
	FOR      // for
	SWITCH   // switch
	CASE     // case
	DEFAULT  // default
	BREAK    // break
	CONTINUE // continue
	RETURN   // return
	EXIT     // exit
	TRUE     // true
	FALSE    // false
	keywordEnd
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	COMMENT: "COMMENT",

	IDENT: "IDENT",
	INT:   "INT",

	ADD: "+",
	SUB: "-",
	MUL: "*",
	QUO: "/",
	REM: "%",

	AND:  "&",
	OR:   "|",
	XOR:  "^",
	SHL:  "<<",
	SHR:  ">>",
	LAND: "&&",
	LOR:  "||",
	NOT:  "!",

	EQL: "==",
	NEQ: "!=",
	LSS: "<",
	LEQ: "<=",
	GTR: ">",
	GEQ: ">=",

	ASSIGN: "=",

	LPAREN: "(",
	RPAREN: ")",
	LBRACE: "{",
	RBRACE: "}",
	LBRACK: "[",
	RBRACK: "]",

	COMMA:     ",",
	SEMICOLON: ";",
	COLON:     ":",
	DOT:       ".",

	PROC:     "proc",
	PROCESS:  "process",
	ENV:      "env",
	CHAN:     "chan",
	SEM:      "sem",
	SHARED:   "shared",
	VAR:      "var",
	IF:       "if",
	ELSE:     "else",
	WHILE:    "while",
	FOR:      "for",
	SWITCH:   "switch",
	CASE:     "case",
	DEFAULT:  "default",
	BREAK:    "break",
	CONTINUE: "continue",
	RETURN:   "return",
	EXIT:     "exit",
	TRUE:     "true",
	FALSE:    "false",
}

// String returns the textual representation of the token kind: the
// operator or keyword spelling for operators and keywords, and the class
// name for literals and special tokens.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsLiteral reports whether the kind is an identifier or basic literal.
func (k Kind) IsLiteral() bool { return literalBeg < k && k < literalEnd }

// IsOperator reports whether the kind is an operator or delimiter.
func (k Kind) IsOperator() bool { return operatorBeg < k && k < operatorEnd }

// IsKeyword reports whether the kind is a keyword.
func (k Kind) IsKeyword() bool { return keywordBeg < k && k < keywordEnd }

var keywords map[string]Kind

func init() {
	keywords = make(map[string]Kind, keywordEnd-keywordBeg-1)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		keywords[kindNames[k]] = k
	}
}

// Lookup maps an identifier spelling to its keyword kind, or IDENT if it
// is not a keyword.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Precedence returns the binary-operator precedence of k, with higher
// values binding tighter, or 0 if k is not a binary operator. The
// precedence levels mirror Go's expression grammar.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case EQL, NEQ, LSS, LEQ, GTR, GEQ:
		return 3
	case ADD, SUB, OR, XOR:
		return 4
	case MUL, QUO, REM, SHL, SHR, AND:
		return 5
	}
	return 0
}

// Pos is a source position: byte offset, 1-based line and column. The
// fields are 32-bit, so a Pos is 12 bytes in every AST and CFG node; the
// parser refuses sources longer than math.MaxInt32 bytes and the lexer
// saturates rather than wraps.
type Pos struct {
	Offset int32
	Line   int32
	Column int32
}

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders the position as "line:column".
func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Column)
}

// Token is a single lexical token with its source position and, for
// identifiers and literals, its spelling.
type Token struct {
	Kind Kind
	Pos  Pos
	Lit  string // spelling for IDENT, INT, COMMENT, ILLEGAL
}

// String renders the token for diagnostics.
func (t Token) String() string {
	if t.Kind.IsLiteral() || t.Kind == COMMENT || t.Kind == ILLEGAL {
		return fmt.Sprintf("%s(%q)", t.Kind, t.Lit)
	}
	return t.Kind.String()
}
