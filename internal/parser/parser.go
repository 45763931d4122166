// Package parser implements a recursive-descent parser for MiniC.
//
// The parser is resilient: on a syntax error it records the error and
// attempts to resynchronize at the next statement or declaration
// boundary, so a single pass reports multiple errors.
package parser

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"reclose/internal/ast"
	"reclose/internal/lexer"
	"reclose/internal/token"
)

// Error is a syntax error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of syntax errors implementing error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	var b strings.Builder
	b.WriteString(l[0].Error())
	fmt.Fprintf(&b, " (and %d more errors)", len(l)-1)
	return b.String()
}

// maxErrors bounds error reporting before the parser gives up.
const maxErrors = 20

var errTooMany = errors.New("too many errors")

type parser struct {
	lex  *lexer.Lexer
	tok  token.Token
	prev token.Pos
	errs ErrorList
}

// Parse parses a complete MiniC program from src. On failure it returns
// a non-nil error (an ErrorList) and a possibly partial program. A
// source longer than math.MaxInt32 bytes, which 32-bit positions cannot
// address, is refused before scanning with a plain error and no program.
func Parse(src []byte) (*ast.Program, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("source is %d bytes; positions address at most %d", len(src), math.MaxInt32)
	}
	p := &parser{lex: lexer.New(src)}
	p.next()
	prog := p.parseProgram()
	for _, le := range p.lex.Errors() {
		p.errs = append(p.errs, &Error{Pos: le.Pos, Msg: le.Msg})
	}
	if len(p.errs) > 0 {
		return prog, p.errs
	}
	return prog, nil
}

// MustParse parses src and panics on error. It is intended for embedded
// example programs and tests.
func MustParse(src string) *ast.Program {
	prog, err := Parse([]byte(src))
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse: %v", err))
	}
	return prog
}

func (p *parser) next() {
	p.prev = p.tok.Pos
	p.tok = p.lex.Next()
}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) >= maxErrors {
		panic(errTooMany)
	}
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// expect consumes a token of the given kind, reporting an error if the
// current token differs.
func (p *parser) expect(kind token.Kind) token.Pos {
	pos := p.tok.Pos
	if p.tok.Kind != kind {
		p.errorf(pos, "expected %q, found %s", kind.String(), p.tok)
	} else {
		p.next()
	}
	return pos
}

func (p *parser) accept(kind token.Kind) bool {
	if p.tok.Kind == kind {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until a likely statement/declaration boundary.
func (p *parser) sync() {
	for {
		switch p.tok.Kind {
		case token.EOF, token.PROC, token.PROCESS, token.CHAN, token.SEM,
			token.SHARED, token.ENV, token.RBRACE:
			return
		case token.SEMICOLON:
			p.next()
			return
		}
		p.next()
	}
}

func (p *parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	defer func() {
		if r := recover(); r != nil && r != any(errTooMany) {
			panic(r)
		}
	}()
	for p.tok.Kind != token.EOF {
		d := p.parseDecl()
		if d != nil {
			prog.Decls = append(prog.Decls, d)
		}
	}
	return prog
}

func (p *parser) parseDecl() ast.Decl {
	switch p.tok.Kind {
	case token.CHAN:
		pos := p.tok.Pos
		p.next()
		name := p.parseIdent()
		p.expect(token.LBRACK)
		capTok := p.parseIntLit()
		p.expect(token.RBRACK)
		p.expect(token.SEMICOLON)
		return &ast.ObjectDecl{KindPos: pos, Kind: ast.ChanObject, Name: name, Arg: capTok}
	case token.SEM:
		pos := p.tok.Pos
		p.next()
		name := p.parseIdent()
		p.expect(token.ASSIGN)
		init := p.parseIntLit()
		p.expect(token.SEMICOLON)
		return &ast.ObjectDecl{KindPos: pos, Kind: ast.SemObject, Name: name, Arg: init}
	case token.SHARED:
		pos := p.tok.Pos
		p.next()
		name := p.parseIdent()
		p.expect(token.ASSIGN)
		init := p.parseIntLit()
		p.expect(token.SEMICOLON)
		return &ast.ObjectDecl{KindPos: pos, Kind: ast.SharedObject, Name: name, Arg: init}
	case token.ENV:
		pos := p.tok.Pos
		p.next()
		if p.accept(token.CHAN) {
			name := p.parseIdent()
			p.expect(token.SEMICOLON)
			return &ast.EnvDecl{EnvPos: pos, Name: name, IsChan: true}
		}
		procName := p.parseIdent()
		p.expect(token.DOT)
		param := p.parseIdent()
		p.expect(token.SEMICOLON)
		return &ast.EnvDecl{EnvPos: pos, Proc: procName, Name: param}
	case token.PROCESS:
		pos := p.tok.Pos
		p.next()
		name := p.parseIdent()
		p.expect(token.SEMICOLON)
		return &ast.ProcessDecl{ProcessPos: pos, Proc: name}
	case token.PROC:
		return p.parseProcDecl()
	}
	p.errorf(p.tok.Pos, "expected declaration, found %s", p.tok)
	p.sync()
	return nil
}

func (p *parser) parseProcDecl() *ast.ProcDecl {
	pos := p.expect(token.PROC)
	name := p.parseIdent()
	p.expect(token.LPAREN)
	var params []*ast.Ident
	if p.tok.Kind != token.RPAREN {
		params = append(params, p.parseIdent())
		for p.accept(token.COMMA) {
			params = append(params, p.parseIdent())
		}
	}
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.ProcDecl{ProcPos: pos, Name: name, Params: params, Body: body}
}

func (p *parser) parseIdent() *ast.Ident {
	if p.tok.Kind != token.IDENT {
		p.errorf(p.tok.Pos, "expected identifier, found %s", p.tok)
		return &ast.Ident{NamePos: p.tok.Pos, Name: "_"}
	}
	id := &ast.Ident{NamePos: p.tok.Pos, Name: p.tok.Lit}
	p.next()
	return id
}

func (p *parser) parseIntLit() int64 {
	neg := p.accept(token.SUB)
	if p.tok.Kind != token.INT {
		p.errorf(p.tok.Pos, "expected integer literal, found %s", p.tok)
		return 0
	}
	v, err := strconv.ParseInt(p.tok.Lit, 10, 64)
	if err != nil {
		p.errorf(p.tok.Pos, "invalid integer literal %q", p.tok.Lit)
	}
	p.next()
	if neg {
		return -v
	}
	return v
}

func (p *parser) parseBlock() *ast.BlockStmt {
	lbrace := p.expect(token.LBRACE)
	blk := &ast.BlockStmt{Lbrace: lbrace}
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		s := p.parseStmt()
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.expect(token.RBRACE)
	return blk
}

func (p *parser) parseStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.VAR:
		return p.parseVarStmt()
	case token.IF:
		return p.parseIfStmt()
	case token.WHILE:
		return p.parseWhileStmt()
	case token.FOR:
		return p.parseForStmt()
	case token.SWITCH:
		return p.parseSwitchStmt()
	case token.BREAK:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.BreakStmt{BreakPos: pos}
	case token.CONTINUE:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.ContinueStmt{ContinuePos: pos}
	case token.RETURN:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.ReturnStmt{ReturnPos: pos}
	case token.EXIT:
		pos := p.tok.Pos
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.ExitStmt{ExitPos: pos}
	case token.LBRACE:
		return p.parseBlock()
	case token.IDENT:
		return p.parseSimpleStmt()
	case token.MUL:
		// pointer store: *p = e;
		opPos := p.tok.Pos
		p.next()
		target := p.parseIdent()
		lhs := &ast.UnaryExpr{OpPos: opPos, Op: token.MUL, X: target}
		p.expect(token.ASSIGN)
		rhs := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.AssignStmt{LHS: lhs, RHS: rhs}
	}
	p.errorf(p.tok.Pos, "expected statement, found %s", p.tok)
	p.sync()
	return nil
}

func (p *parser) parseVarStmt() ast.Stmt {
	pos := p.expect(token.VAR)
	name := p.parseIdent()
	vs := &ast.VarStmt{VarPos: pos, Name: name}
	switch {
	case p.accept(token.LBRACK):
		vs.Size = p.parseExpr()
		p.expect(token.RBRACK)
	case p.accept(token.ASSIGN):
		vs.Init = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	return vs
}

// parseSimpleStmt parses an assignment or a call statement beginning with
// an identifier.
func (p *parser) parseSimpleStmt() ast.Stmt {
	name := p.parseIdent()
	// `progress` is a contextual keyword: when it prefixes another
	// identifier it labels the following call statement as a progress
	// operation for liveness checking. `progress = 5;` and
	// `progress(x);` still parse as an assignment and a call to a
	// procedure named "progress".
	if name.Name == "progress" && p.tok.Kind == token.IDENT {
		stmt := p.parseSimpleStmt()
		call, ok := stmt.(*ast.CallStmt)
		if !ok {
			if stmt != nil {
				p.errorf(stmt.Pos(), "progress label requires a call statement")
			}
			return stmt
		}
		call.Progress = true
		return call
	}
	switch p.tok.Kind {
	case token.LPAREN:
		p.next()
		var args []ast.Expr
		if p.tok.Kind != token.RPAREN {
			args = append(args, p.parseExpr())
			for p.accept(token.COMMA) {
				args = append(args, p.parseExpr())
			}
		}
		p.expect(token.RPAREN)
		p.expect(token.SEMICOLON)
		return &ast.CallStmt{Name: name, Args: args}
	case token.LBRACK:
		p.next()
		idx := p.parseExpr()
		p.expect(token.RBRACK)
		lhs := &ast.IndexExpr{X: name, Index: idx}
		p.expect(token.ASSIGN)
		rhs := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.AssignStmt{LHS: lhs, RHS: rhs}
	case token.ASSIGN:
		p.next()
		rhs := p.parseExpr()
		p.expect(token.SEMICOLON)
		return &ast.AssignStmt{LHS: name, RHS: rhs}
	}
	p.errorf(p.tok.Pos, "expected '(', '[' or '=' after identifier, found %s", p.tok)
	p.sync()
	return nil
}

func (p *parser) parseIfStmt() ast.Stmt {
	pos := p.expect(token.IF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	var els *ast.BlockStmt
	if p.accept(token.ELSE) {
		if p.tok.Kind == token.IF {
			// else-if chains desugar into a nested block.
			inner := p.parseIfStmt()
			els = &ast.BlockStmt{Lbrace: inner.Pos(), Stmts: []ast.Stmt{inner}}
		} else {
			els = p.parseBlock()
		}
	}
	return &ast.IfStmt{IfPos: pos, Cond: cond, Then: then, Else: els}
}

func (p *parser) parseWhileStmt() ast.Stmt {
	pos := p.expect(token.WHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.WhileStmt{WhilePos: pos, Cond: cond, Body: body}
}

func (p *parser) parseForStmt() ast.Stmt {
	pos := p.expect(token.FOR)
	p.expect(token.LPAREN)
	var init, post *ast.AssignStmt
	var cond ast.Expr
	if p.tok.Kind != token.SEMICOLON {
		init = p.parseAssignClause()
	}
	p.expect(token.SEMICOLON)
	if p.tok.Kind != token.SEMICOLON {
		cond = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	if p.tok.Kind != token.RPAREN {
		post = p.parseAssignClause()
	}
	p.expect(token.RPAREN)
	body := p.parseBlock()
	return &ast.ForStmt{ForPos: pos, Init: init, Cond: cond, Post: post, Body: body}
}

// parseSwitchStmt parses
//
//	switch (tag) { case v1, v2: stmts ... default: stmts ... }
//
// Cases do not fall through (Go-like semantics, documented in ast).
func (p *parser) parseSwitchStmt() ast.Stmt {
	pos := p.expect(token.SWITCH)
	p.expect(token.LPAREN)
	tag := p.parseExpr()
	p.expect(token.RPAREN)
	p.expect(token.LBRACE)
	sw := &ast.SwitchStmt{SwitchPos: pos, Tag: tag}
	seenDefault := false
	for p.tok.Kind == token.CASE || p.tok.Kind == token.DEFAULT {
		clause := &ast.CaseClause{CasePos: p.tok.Pos}
		if p.accept(token.DEFAULT) {
			if seenDefault {
				p.errorf(clause.CasePos, "multiple default clauses in switch")
			}
			seenDefault = true
		} else {
			p.expect(token.CASE)
			clause.Values = append(clause.Values, p.parseExpr())
			for p.accept(token.COMMA) {
				clause.Values = append(clause.Values, p.parseExpr())
			}
		}
		p.expect(token.COLON)
		clause.Body = &ast.BlockStmt{Lbrace: p.tok.Pos}
		for p.tok.Kind != token.CASE && p.tok.Kind != token.DEFAULT &&
			p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
			if s := p.parseStmt(); s != nil {
				clause.Body.Stmts = append(clause.Body.Stmts, s)
			}
		}
		sw.Cases = append(sw.Cases, clause)
	}
	p.expect(token.RBRACE)
	if len(sw.Cases) == 0 {
		p.errorf(pos, "switch with no cases")
	}
	return sw
}

// parseAssignClause parses "lhs = expr" without a trailing semicolon, as
// used in for-loop init/post clauses.
func (p *parser) parseAssignClause() *ast.AssignStmt {
	var lhs ast.Expr
	if p.tok.Kind == token.MUL {
		opPos := p.tok.Pos
		p.next()
		lhs = &ast.UnaryExpr{OpPos: opPos, Op: token.MUL, X: p.parseIdent()}
	} else {
		name := p.parseIdent()
		if p.accept(token.LBRACK) {
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			lhs = &ast.IndexExpr{X: name, Index: idx}
		} else {
			lhs = name
		}
	}
	p.expect(token.ASSIGN)
	rhs := p.parseExpr()
	return &ast.AssignStmt{LHS: lhs, RHS: rhs}
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *parser) parseExpr() ast.Expr {
	return p.parseBinaryExpr(1)
}

func (p *parser) parseBinaryExpr(minPrec int) ast.Expr {
	x := p.parseUnaryExpr()
	for {
		prec := p.tok.Kind.Precedence()
		if prec < minPrec {
			return x
		}
		op := p.tok.Kind
		opPos := p.tok.Pos
		p.next()
		y := p.parseBinaryExpr(prec + 1)
		x = &ast.BinaryExpr{X: x, OpPos: opPos, Op: op, Y: y}
	}
}

func (p *parser) parseUnaryExpr() ast.Expr {
	switch p.tok.Kind {
	case token.SUB, token.NOT, token.MUL, token.AND:
		op := p.tok.Kind
		pos := p.tok.Pos
		p.next()
		x := p.parseUnaryExpr()
		return &ast.UnaryExpr{OpPos: pos, Op: op, X: x}
	}
	return p.parsePrimaryExpr()
}

func (p *parser) parsePrimaryExpr() ast.Expr {
	switch p.tok.Kind {
	case token.INT:
		v, err := strconv.ParseInt(p.tok.Lit, 10, 64)
		if err != nil {
			p.errorf(p.tok.Pos, "invalid integer literal %q", p.tok.Lit)
		}
		lit := &ast.IntLit{ValuePos: p.tok.Pos, Value: v}
		p.next()
		return lit
	case token.TRUE, token.FALSE:
		lit := &ast.BoolLit{ValuePos: p.tok.Pos, Value: p.tok.Kind == token.TRUE}
		p.next()
		return lit
	case token.LPAREN:
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	case token.IDENT:
		switch p.tok.Lit {
		case "VS_toss":
			pos := p.tok.Pos
			p.next()
			p.expect(token.LPAREN)
			bound := p.parseExpr()
			p.expect(token.RPAREN)
			return &ast.TossExpr{TossPos: pos, Bound: bound}
		case "undef":
			lit := &ast.UndefLit{ValuePos: p.tok.Pos}
			p.next()
			return lit
		}
		name := p.parseIdent()
		if p.accept(token.LBRACK) {
			idx := p.parseExpr()
			p.expect(token.RBRACK)
			return &ast.IndexExpr{X: name, Index: idx}
		}
		return name
	}
	p.errorf(p.tok.Pos, "expected expression, found %s", p.tok)
	pos := p.tok.Pos
	p.next()
	return &ast.IntLit{ValuePos: pos}
}
