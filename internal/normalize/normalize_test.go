package normalize_test

import (
	"strings"
	"testing"

	"reclose/internal/ast"
	"reclose/internal/normalize"
	"reclose/internal/parser"
	"reclose/internal/progs"
	"reclose/internal/sem"
)

func normalizeSrc(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog := parser.MustParse(src)
	sem.MustCheck(prog)
	normalize.Program(prog)
	// The result must re-check (fresh temporaries included).
	if _, err := sem.Check(prog); err != nil {
		t.Fatalf("normalized program fails check: %v\n%s", err, ast.Format(prog))
	}
	return prog
}

// callArgsAreVars asserts the paper-form invariant on every call.
func callArgsAreVars(t *testing.T, prog *ast.Program) {
	t.Helper()
	for _, pd := range prog.Procs() {
		ast.Inspect(pd.Body, func(n ast.Node) bool {
			cs, ok := n.(*ast.CallStmt)
			if !ok {
				return true
			}
			b, isB := sem.Builtins[cs.Name.Name]
			for i, a := range cs.Args {
				if isB && b.HasObj && i == 0 {
					continue
				}
				if _, ok := a.(*ast.Ident); !ok {
					t.Errorf("proc %s: call %s has non-variable argument %d: %s",
						pd.Name.Name, cs.Name.Name, i, ast.FormatExpr(a))
				}
			}
			return true
		})
	}
}

func TestHoistCompoundArgs(t *testing.T) {
	prog := normalizeSrc(t, `
chan c[1];
proc g(a, b) { return; }
proc f(x) {
    send(c, x + 1);
    g(x * 2, x);
    VS_assert(x > 0);
}
`)
	callArgsAreVars(t, prog)
	f := prog.Proc("f")
	// Three temporaries: x+1, x*2, x>0 — x stays as-is.
	temps := 0
	for _, s := range f.Body.Stmts {
		if vs, ok := s.(*ast.VarStmt); ok && strings.HasPrefix(vs.Name.Name, "__t") {
			temps++
		}
	}
	if temps != 3 {
		t.Errorf("temporaries = %d, want 3\n%s", temps, ast.Format(prog))
	}
}

func TestHoistAddressOf(t *testing.T) {
	prog := normalizeSrc(t, `
proc g(p) { *p = 1; }
proc f() {
    var r = 0;
    g(&r);
    VS_assert(r == 1);
}
`)
	callArgsAreVars(t, prog)
}

func TestHoistInsideControlFlow(t *testing.T) {
	prog := normalizeSrc(t, `
chan c[1];
proc f(x) {
    while (x > 0) {
        if (x % 2 == 0) {
            send(c, x - 1);
        }
        x = x - 1;
    }
    for (x = 0; x < 2; x = x + 1) {
        send(c, x + 10);
    }
}
`)
	callArgsAreVars(t, prog)
}

func TestNoChangeWhenAlreadyNormal(t *testing.T) {
	src := `
chan c[1];
proc f(x) {
    send(c, x);
    recv(c, x);
}
`
	prog := normalizeSrc(t, src)
	f := prog.Proc("f")
	if len(f.Body.Stmts) != 2 {
		t.Errorf("statements = %d, want 2 (nothing hoisted)\n%s", len(f.Body.Stmts), ast.Format(prog))
	}
}

func TestOutArgsUntouched(t *testing.T) {
	prog := normalizeSrc(t, `
chan c[1];
shared g = 0;
proc f(x) {
    recv(c, x);
    vread(g, x);
}
`)
	f := prog.Proc("f")
	if len(f.Body.Stmts) != 2 {
		t.Errorf("out args must not be hoisted:\n%s", ast.Format(prog))
	}
}

// TestFreshNamesAvoidCollisions: a temporary takes no name a variable,
// an object or a procedure has, so none shadows or redeclares one.
func TestFreshNamesAvoidCollisions(t *testing.T) {
	for _, src := range []string{`
chan c[1];
proc f(x) {
    var __t1 = 5;
    send(c, x + __t1);
}
`, `
chan __t1[1];
proc f(x) {
    send(__t1, x + 1);
}
`, `
chan c[1];
proc __t1() { return; }
proc f(x) {
    send(c, x + 1);
    __t1();
}
`} {
		prog := normalizeSrc(t, src)
		callArgsAreVars(t, prog)
		names := map[string]int{}
		for _, s := range prog.Proc("f").Body.Stmts {
			switch s := s.(type) {
			case *ast.VarStmt:
				names[s.Name.Name]++
			case *ast.CallStmt:
				if s.Name.Name == "send" && s.Args[0].(*ast.Ident).Name != prog.Objects()[0].Name.Name {
					t.Errorf("send's object became %s:\n%s", ast.FormatExpr(s.Args[0]), ast.Format(prog))
				}
			}
		}
		for n, k := range names {
			if k > 1 {
				t.Errorf("variable %q declared %d times", n, k)
			}
			if prog.Proc(n) != nil {
				t.Errorf("temporary %q is a procedure's name:\n%s", n, ast.Format(prog))
			}
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	for _, src := range []string{
		progs.FigureP, progs.FigureQ, progs.ProducerConsumer, progs.Router, progs.Interproc,
	} {
		prog := parser.MustParse(src)
		sem.MustCheck(prog)
		normalize.Program(prog)
		once := ast.Format(prog)
		sem.MustCheck(prog)
		normalize.Program(prog)
		twice := ast.Format(prog)
		if once != twice {
			t.Errorf("normalize not idempotent:\n--- once\n%s\n--- twice\n%s", once, twice)
		}
	}
}

func TestAllExamplesNormalize(t *testing.T) {
	for _, src := range []string{
		progs.FigureP, progs.FigureQ, progs.SimpleTaint, progs.PathIndependent,
		progs.ProducerConsumer, progs.DeadlockProne, progs.AssertViolation,
		progs.Router, progs.Interproc,
	} {
		callArgsAreVars(t, normalizeSrc(t, src))
	}
}
