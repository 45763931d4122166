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

// Program normalizes prog in place and returns it; the input must pass
// sem.Check. It is Checked for callers that do not hold the Info.
func Program(prog *ast.Program) *ast.Program {
	info, _ := sem.Check(prog)
	Checked(prog, info)
	return prog
}

// Checked normalizes prog in place. info must be sem.Check's result for
// prog; each temporary is entered into info.ProcVars, so afterwards info
// is what a fresh check of the normalized program returns. A statement
// list is rebuilt only where a temporary is hoisted into it.
func Checked(prog *ast.Program, info *sem.Info) {
	n := &normalizer{info: info}
	for _, d := range prog.Decls {
		if pd, ok := d.(*ast.ProcDecl); ok {
			n.vars, n.nTemp = info.ProcVars[pd.Name.Name], 0
			n.block(pd.Body)
		}
	}
}

type normalizer struct {
	info  *sem.Info
	vars  map[string]bool // the current procedure's variables
	nTemp int
}

// fresh returns a name no variable of the procedure, object or
// procedure has, and declares it.
func (n *normalizer) fresh() string {
	for {
		n.nTemp++
		name := fmt.Sprintf("__t%d", n.nTemp)
		if !n.vars[name] && n.info.Objects[name] == nil && n.info.Procs[name] == nil {
			n.vars[name] = true
			return name
		}
	}
}

// block normalizes b in place.
func (n *normalizer) block(b *ast.BlockStmt) {
	var out []ast.Stmt // nil until a statement gains temporaries
	for i, st := range b.Stmts {
		pre := n.stmt(st)
		if out == nil && pre == nil {
			continue
		}
		if out == nil {
			out = append(make([]ast.Stmt, 0, len(b.Stmts)+len(pre)), b.Stmts[:i]...)
		}
		out = append(append(out, pre...), st)
	}
	if out != nil {
		b.Stmts = out
	}
}

// stmt normalizes one statement in place and returns the temporaries'
// declarations to insert before it.
func (n *normalizer) stmt(st ast.Stmt) []ast.Stmt {
	switch st := st.(type) {
	case *ast.CallStmt:
		return n.call(st)
	case *ast.IfStmt:
		n.block(st.Then)
		if st.Else != nil {
			n.block(st.Else)
		}
	case *ast.WhileStmt:
		n.block(st.Body)
	case *ast.ForStmt:
		n.block(st.Body)
	case *ast.SwitchStmt:
		return n.switchStmt(st)
	case *ast.BlockStmt:
		n.block(st)
	}
	return nil
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
		pre = []ast.Stmt{n.hoist(&st.Tag)}
	}
	for _, cl := range st.Cases {
		n.block(cl.Body)
	}
	return pre
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
		pre = append(pre, n.hoist(&st.Args[i]))
	}
	return pre
}

// hoist replaces *e by a fresh temporary and returns the temporary's
// declaration, initialized to the old *e.
func (n *normalizer) hoist(e *ast.Expr) ast.Stmt {
	x := *e
	tmp := n.fresh()
	*e = &ast.Ident{NamePos: x.Pos(), Name: tmp}
	return &ast.VarStmt{VarPos: x.Pos(), Name: &ast.Ident{NamePos: x.Pos(), Name: tmp}, Init: x}
}
