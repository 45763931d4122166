// Package mgenv implements the naive baseline discussed in §3 of the
// paper: closing an open system S by composing it with an explicit most
// general environment E_S that nondeterministically provides any input
// value at any time and accepts any output.
//
// Because E_S branches over the whole input domain at every input point,
// the resulting state space grows with the domain size — the
// intractability that motivates the paper's transformation (which the
// benchmarks quantify, experiment E4). The domain is therefore finite
// here, parameterized by Domain.
//
// The composition works on source text:
//
//   - an environment parameter of a process entry procedure is supplied
//     by a wrapper procedure that draws the value from VS_toss(D-1)
//     before calling the original entry;
//   - an env-facing channel the system only receives from becomes a
//     regular channel driven by a daemon environment process that sends
//     nondeterministic values forever;
//   - an env-facing channel the system only sends to becomes a regular
//     channel drained by a daemon environment process.
//
// Daemon processes are flagged in the resulting unit so that an
// environment blocked forever does not read as a deadlock.
package mgenv

import (
	"errors"
	"fmt"
	"sort"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/parser"
	"reclose/internal/sem"
)

// Info describes the composition.
type Info struct {
	// SystemProcs is the number of system processes; they occupy process
	// indices [0, SystemProcs) in the composed unit, in their original
	// order. Environment processes follow.
	SystemProcs int
	// EnvProcs lists the names of the generated environment procedures.
	EnvProcs []string
	// Domain is the input domain size used (values 0..Domain-1).
	Domain int
}

// ComposeSource parses open MiniC source text and closes it with an
// explicit most general environment over the given input domain size
// (values 0..domain-1). It returns the compiled closed unit.
func ComposeSource(src string, domain int) (*cfg.Unit, *Info, error) {
	if domain < 1 {
		return nil, nil, fmt.Errorf("mgenv: domain must be >= 1, got %d", domain)
	}
	prog, err := parser.Parse([]byte(src))
	if err != nil {
		return nil, nil, fmt.Errorf("mgenv: parse: %w", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("mgenv: check: %w", err)
	}
	composed, cinfo, err := compose(prog, info, domain)
	if err != nil {
		return nil, nil, err
	}
	unit, err := core.CompileProgram(composed)
	if err != nil {
		return nil, nil, fmt.Errorf("mgenv: compile composed program: %w", err)
	}
	unit.Daemons = make(map[int]bool)
	for i := cinfo.SystemProcs; i < len(unit.Processes); i++ {
		unit.Daemons[i] = true
	}
	return unit, cinfo, nil
}

// ErrOpen is Prepare's refusal of an open program under close mode
// "none".
var ErrOpen = errors.New("program is open and close mode is none")

// Prepare is the compile-then-close pipeline in front of every search
// (verisoft, a verisoftd job, a distributed worker): it compiles MiniC
// source and, if the program is open, closes it as mode says — "naive"
// composes the most general environment over [0, domain), "none" refuses
// with ErrOpen, anything else ("", "auto") is the paper's transformation.
// how describes what was done, in the words of verisoft's "prepared
// system:" line.
func Prepare(src, mode string, domain int) (unit *cfg.Unit, how string, err error) {
	unit, err = core.CompileSource(src)
	if err != nil {
		return nil, "", err
	}
	if !unit.IsOpen() {
		return unit, "already closed", nil
	}
	switch mode {
	case "none":
		return nil, "", ErrOpen
	case "naive":
		composed, info, err := ComposeSource(src, domain)
		if err != nil {
			return nil, "", err
		}
		return composed, fmt.Sprintf("naively closed with most general environment, domain %d (%d env processes)",
			domain, len(info.EnvProcs)), nil
	}
	closed, st, err := core.Close(unit)
	if err != nil {
		return nil, "", err
	}
	return closed, fmt.Sprintf("automatically closed (%s)", st), nil
}

// chanDirection classifies how the system uses an env-facing channel.
type chanDirection int

const (
	dirUnused chanDirection = iota
	dirInput                // system receives from it
	dirOutput               // system sends to it
	dirMixed
)

func compose(prog *ast.Program, info *sem.Info, domain int) (*ast.Program, *Info, error) {
	cinfo := &Info{Domain: domain}

	// Classify env channel usage across all procedures.
	dirs := make(map[string]chanDirection)
	for name := range info.EnvChans {
		dirs[name] = dirUnused
	}
	for _, pd := range prog.Procs() {
		ast.Inspect(pd.Body, func(n ast.Node) bool {
			cs, ok := n.(*ast.CallStmt)
			if !ok {
				return true
			}
			b, isB := sem.Builtins[cs.Name.Name]
			if !isB || !b.HasObj || len(cs.Args) == 0 {
				return true
			}
			id, ok := cs.Args[0].(*ast.Ident)
			if !ok {
				return true
			}
			d, isEnv := dirs[id.Name]
			if !isEnv {
				return true
			}
			var use chanDirection
			switch cs.Name.Name {
			case "recv":
				use = dirInput
			case "send":
				use = dirOutput
			default:
				return true
			}
			switch {
			case d == dirUnused:
				dirs[id.Name] = use
			case d != use:
				dirs[id.Name] = dirMixed
			}
			return true
		})
	}
	for name, d := range dirs {
		if d == dirMixed {
			return nil, nil, fmt.Errorf("mgenv: env chan %q is both sent to and received from by the system; split it into one channel per direction", name)
		}
	}

	// Env parameters must belong to process entry procedures only: a
	// procedure called from within the system cannot simultaneously take
	// its argument from an explicit environment component.
	entry := make(map[string]bool)
	for _, ps := range prog.Processes() {
		entry[ps.Proc.Name] = true
	}
	for proc, set := range info.EnvParams {
		if len(set) > 0 && !entry[proc] {
			return nil, nil, fmt.Errorf("mgenv: env parameter on non-entry procedure %q is not supported by the naive composition", proc)
		}
	}

	out := &ast.Program{}
	// Objects and procedures carry over; env decls are dropped.
	for _, d := range prog.Decls {
		switch d.(type) {
		case *ast.ObjectDecl, *ast.ProcDecl:
			out.Decls = append(out.Decls, d)
		}
	}

	// System processes, with env-parameter entries wrapped.
	wrapped := make(map[string]string) // entry proc -> wrapper name
	for _, ps := range prog.Processes() {
		cinfo.SystemProcs++
		name := ps.Proc.Name
		if len(info.EnvParams[name]) == 0 {
			out.Decls = append(out.Decls, &ast.ProcessDecl{Proc: ident(name)})
			continue
		}
		w, ok := wrapped[name]
		if !ok {
			w = "__mg_main_" + name
			wrapped[name] = w
			out.Decls = append(out.Decls, wrapperProc(w, info.Procs[name], domain))
		}
		out.Decls = append(out.Decls, &ast.ProcessDecl{Proc: ident(w)})
	}

	// Environment processes for env channels.
	for _, name := range sortedKeys(dirs) {
		switch dirs[name] {
		case dirInput:
			p := "__mg_feed_" + name
			out.Decls = append(out.Decls, feederProc(p, name, domain))
			out.Decls = append(out.Decls, &ast.ProcessDecl{Proc: ident(p)})
			cinfo.EnvProcs = append(cinfo.EnvProcs, p)
		case dirOutput:
			p := "__mg_drain_" + name
			out.Decls = append(out.Decls, drainProc(p, name))
			out.Decls = append(out.Decls, &ast.ProcessDecl{Proc: ident(p)})
			cinfo.EnvProcs = append(cinfo.EnvProcs, p)
		case dirUnused:
			// The system never touches the channel; no env component is
			// needed.
		}
	}
	return out, cinfo, nil
}

func ident(name string) *ast.Ident { return &ast.Ident{Name: name} }

func sortedKeys(m map[string]chanDirection) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// wrapperProc builds:
//
//	proc w() { var __mg0 = VS_toss(D-1); ... ; entry(__mg0, ...); }
//
// one toss-drawn fresh variable per entry parameter (the environment
// chooses every input value independently, per the definition of E_S).
func wrapperProc(name string, entry *ast.ProcDecl, domain int) *ast.ProcDecl {
	body := &ast.BlockStmt{}
	call := &ast.CallStmt{Name: ident(entry.Name.Name)}
	for i := range entry.Params {
		v := fmt.Sprintf("__mg%d", i)
		body.Stmts = append(body.Stmts, &ast.VarStmt{
			Name: ident(v),
			Init: &ast.TossExpr{Bound: &ast.IntLit{Value: int64(domain - 1)}},
		})
		call.Args = append(call.Args, ident(v))
	}
	body.Stmts = append(body.Stmts, call)
	return &ast.ProcDecl{Name: ident(name), Body: body}
}

// feederProc builds the input driver:
//
//	proc p() { var v; while (true) { v = VS_toss(D-1); send(c, v); } }
func feederProc(name, ch string, domain int) *ast.ProcDecl {
	return &ast.ProcDecl{
		Name: ident(name),
		Body: &ast.BlockStmt{Stmts: []ast.Stmt{
			&ast.VarStmt{Name: ident("v")},
			&ast.WhileStmt{
				Cond: &ast.BoolLit{Value: true},
				Body: &ast.BlockStmt{Stmts: []ast.Stmt{
					&ast.AssignStmt{
						LHS: ident("v"),
						RHS: &ast.TossExpr{Bound: &ast.IntLit{Value: int64(domain - 1)}},
					},
					&ast.CallStmt{Name: ident("send"), Args: []ast.Expr{ident(ch), ident("v")}},
				}},
			},
		}},
	}
}

// drainProc builds the output acceptor:
//
//	proc p() { var v; while (true) { recv(c, v); } }
func drainProc(name, ch string) *ast.ProcDecl {
	return &ast.ProcDecl{
		Name: ident(name),
		Body: &ast.BlockStmt{Stmts: []ast.Stmt{
			&ast.VarStmt{Name: ident("v")},
			&ast.WhileStmt{
				Cond: &ast.BoolLit{Value: true},
				Body: &ast.BlockStmt{Stmts: []ast.Stmt{
					&ast.CallStmt{Name: ident("recv"), Args: []ast.Expr{ident(ch), ident("v")}},
				}},
			},
		}},
	}
}
