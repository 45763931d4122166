// Package normalize rewrites a checked MiniC program into the "paper
// form" assumed by the closing algorithm of §4:
//
//   - every argument of a procedure call (user procedure or builtin) is a
//     plain variable — compound argument expressions are hoisted into
//     fresh temporaries assigned immediately before the call;
//   - the object argument of a builtin operation (argument 0 of send,
//     recv, wait, signal, vread, vwrite) is left in place, since it names
//     a communication object rather than passing a value;
//   - output arguments of recv/vread are already required to be
//     variables by the semantic checker and are left untouched.
//
// After normalization each assignment defines exactly one variable and
// each call argument is a variable, which is exactly what the define-use
// analysis and the transformation of Figure 1 assume.
package normalize

import (
	"fmt"

	"reclose/internal/ast"
	"reclose/internal/sem"
)

// Program rewrites prog in place (allocating fresh statement lists) and
// returns it. The input must have passed sem.Check. The caller should
// re-run sem.Check afterwards to refresh symbol information (fresh
// temporaries are introduced).
func Program(prog *ast.Program) *ast.Program {
	for _, pd := range prog.Procs() {
		n := &normalizer{proc: pd.Name.Name}
		n.collectNames(pd)
		pd.Body = n.block(pd.Body)
	}
	return prog
}

type normalizer struct {
	proc  string
	used  map[string]bool
	nTemp int
}

func (n *normalizer) collectNames(pd *ast.ProcDecl) {
	n.used = make(map[string]bool)
	for _, p := range pd.Params {
		n.used[p.Name] = true
	}
	ast.Inspect(pd.Body, func(node ast.Node) bool {
		if vs, ok := node.(*ast.VarStmt); ok {
			n.used[vs.Name.Name] = true
		}
		return true
	})
}

func (n *normalizer) fresh() string {
	for {
		n.nTemp++
		name := fmt.Sprintf("__t%d", n.nTemp)
		if !n.used[name] {
			n.used[name] = true
			return name
		}
	}
}

func (n *normalizer) block(b *ast.BlockStmt) *ast.BlockStmt {
	out := &ast.BlockStmt{Lbrace: b.Lbrace, Stmts: make([]ast.Stmt, 0, len(b.Stmts))}
	for _, st := range b.Stmts {
		out.Stmts = append(out.Stmts, n.stmt(st)...)
	}
	return out
}

// stmt normalizes one statement, possibly expanding it into several.
func (n *normalizer) stmt(st ast.Stmt) []ast.Stmt {
	switch st := st.(type) {
	case *ast.CallStmt:
		return n.call(st)
	case *ast.IfStmt:
		st.Then = n.block(st.Then)
		if st.Else != nil {
			st.Else = n.block(st.Else)
		}
		return []ast.Stmt{st}
	case *ast.WhileStmt:
		st.Body = n.block(st.Body)
		return []ast.Stmt{st}
	case *ast.ForStmt:
		st.Body = n.block(st.Body)
		return []ast.Stmt{st}
	case *ast.SwitchStmt:
		return n.switchStmt(st)
	case *ast.BlockStmt:
		return []ast.Stmt{n.block(st)}
	default:
		return []ast.Stmt{st}
	}
}

// switchStmt normalizes a switch: the tag expression is hoisted into a
// fresh temporary unless it is already a variable or literal, so that
// the control-flow graph's per-case comparisons evaluate it exactly
// once; case bodies are normalized recursively.
func (n *normalizer) switchStmt(st *ast.SwitchStmt) []ast.Stmt {
	var pre []ast.Stmt
	switch st.Tag.(type) {
	case *ast.Ident, *ast.IntLit, *ast.BoolLit:
		// already a single evaluation
	default:
		tmp := n.fresh()
		pre = append(pre, &ast.VarStmt{VarPos: st.Tag.Pos(),
			Name: &ast.Ident{NamePos: st.Tag.Pos(), Name: tmp}, Init: st.Tag})
		st.Tag = &ast.Ident{NamePos: st.Tag.Pos(), Name: tmp}
	}
	for _, cl := range st.Cases {
		cl.Body = n.block(cl.Body)
	}
	return append(pre, st)
}

// call hoists compound arguments of a call into fresh temporaries.
func (n *normalizer) call(st *ast.CallStmt) []ast.Stmt {
	b, isBuiltin := sem.Builtins[st.Name.Name]
	var pre []ast.Stmt
	for i, a := range st.Args {
		if isBuiltin {
			if b.HasObj && i == 0 {
				continue // object name, not a value
			}
			if i == b.OutArg {
				continue // output variable, must stay a variable
			}
		}
		if _, ok := a.(*ast.Ident); ok {
			continue // already a variable
		}
		tmp := n.fresh()
		id := &ast.Ident{NamePos: a.Pos(), Name: tmp}
		pre = append(pre, &ast.VarStmt{VarPos: a.Pos(), Name: id, Init: a})
		st.Args[i] = &ast.Ident{NamePos: a.Pos(), Name: tmp}
	}
	return append(pre, st)
}
