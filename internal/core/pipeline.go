package core

import (
	"fmt"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/normalize"
	"reclose/internal/parser"
	"reclose/internal/sem"
)

// CompileSource runs the full front end on MiniC source text: parse,
// check once, normalize to paper form and build the control-flow graphs.
// It returns the compiled unit of the (still open) program.
func CompileSource(src string) (*cfg.Unit, error) {
	prog, err := parser.Parse([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return CompileProgram(prog)
}

// CompileProgram is CompileSource for an already-parsed program. The
// program is normalized in place.
func CompileProgram(prog *ast.Program) (*cfg.Unit, error) {
	info, err := sem.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	normalize.Checked(prog, info)
	u := cfg.CompileUnit(prog, info)
	if err := u.Validate(); err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	return u, nil
}

// CloseSource compiles MiniC source text and closes it: the complete
// front-to-back pipeline of the tool. It returns the closed unit and the
// transformation statistics.
func CloseSource(src string) (*cfg.Unit, *Stats, error) {
	u, err := CompileSource(src)
	if err != nil {
		return nil, nil, err
	}
	return Close(u)
}

// MustCloseSource is CloseSource that panics on error, for embedded
// example programs and tests.
func MustCloseSource(src string) (*cfg.Unit, *Stats) {
	u, st, err := CloseSource(src)
	if err != nil {
		panic(fmt.Sprintf("core.MustCloseSource: %v", err))
	}
	return u, st
}

// MustCompileSource is CompileSource that panics on error.
func MustCompileSource(src string) *cfg.Unit {
	u, err := CompileSource(src)
	if err != nil {
		panic(fmt.Sprintf("core.MustCompileSource: %v", err))
	}
	return u
}
