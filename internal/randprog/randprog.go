// Package randprog generates random well-formed open MiniC programs for
// property-based testing. Generate guarantees (Pointers does not):
//
//   - the program parses, checks, normalizes, compiles, and closes;
//   - the open program never traps at runtime (integer-only values, no
//     division, modulo only by positive constants, bounded loops);
//   - VS_assert arguments are environment-independent by construction
//     (the generator tracks a conservative taint on variables), so
//     assertion leaves align between the naive composition and the
//     closed transformation;
//   - exploration of the naive composition is finite up to a depth
//     bound (all loops are counter-bounded; environment feeders are
//     daemons).
//
// Programs exercise env parameters, env channels in both directions,
// system channels, semaphores, shared variables, conditionals, bounded
// loops, helper procedure calls, and assertions.
package randprog

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated programs.
type Config struct {
	// Processes is the number of system processes (default 2).
	Processes int
	// MaxStmts bounds the statements per procedure body (default 6).
	MaxStmts int
	// MaxLoopIters bounds loop trip counts (default 2).
	MaxLoopIters int
	// Helpers is the number of helper procedures (default 1).
	Helpers int
}

func (c Config) withDefaults() Config {
	if c.Processes <= 0 {
		c.Processes = 2
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 6
	}
	if c.MaxLoopIters <= 0 {
		c.MaxLoopIters = 2
	}
	return c
}

// Generate returns the source text of a random open program.
func Generate(r *rand.Rand, cfg Config) string {
	cfg = cfg.withDefaults()
	g := &gen{r: r, cfg: cfg}
	return g.program()
}

type gen struct {
	r   *rand.Rand
	cfg Config
	b   strings.Builder

	sysChans []string
	sems     []string
	shareds  []string
	helpers  []helper

	nVar int
}

type helper struct {
	name   string
	params int
}

// variable tracks one local of the procedure being generated.
type variable struct {
	name    string
	tainted bool // may carry an environment-dependent value
	isBool  bool // holds a boolean (assert temporaries); never used in
	// integer expressions or reassigned, keeping the program type-safe
}

type procGen struct {
	g    *gen
	vars []variable
	b    *strings.Builder
	ind  string
}

func (g *gen) intn(n int) int { return g.r.Intn(n) }

func (g *gen) program() string {
	// Objects.
	nChans := 1 + g.intn(2)
	for i := 0; i < nChans; i++ {
		name := fmt.Sprintf("ch%d", i)
		g.sysChans = append(g.sysChans, name)
		fmt.Fprintf(&g.b, "chan %s[%d];\n", name, 1+g.intn(2))
	}
	if g.intn(2) == 0 {
		g.sems = append(g.sems, "mtx")
		fmt.Fprintf(&g.b, "sem mtx = 1;\n")
	}
	if g.intn(2) == 0 {
		g.shareds = append(g.shareds, "gv")
		fmt.Fprintf(&g.b, "shared gv = %d;\n", g.intn(3))
	}
	g.b.WriteString("chan ein[1];\nchan eout[1];\nenv chan ein;\nenv chan eout;\n")

	// Helper procedures (no nested calls, value params only).
	for i := 0; i < g.cfg.Helpers; i++ {
		h := helper{name: fmt.Sprintf("help%d", i), params: 1 + g.intn(2)}
		g.helpers = append(g.helpers, h)
		g.emitHelper(h)
	}

	// Process entry procedures.
	var envDecls, processDecls []string
	for i := 0; i < g.cfg.Processes; i++ {
		name := fmt.Sprintf("main%d", i)
		hasEnvParam := g.intn(2) == 0
		p := &procGen{g: g, b: &g.b, ind: "    "}
		if hasEnvParam {
			fmt.Fprintf(&g.b, "proc %s(ex) {\n", name)
			p.vars = append(p.vars, variable{name: "ex", tainted: true})
			envDecls = append(envDecls, fmt.Sprintf("env %s.ex;", name))
		} else {
			fmt.Fprintf(&g.b, "proc %s() {\n", name)
		}
		p.declare(false) // at least one clean local
		p.stmts(1 + g.intn(g.cfg.MaxStmts))
		g.b.WriteString("}\n")
		processDecls = append(processDecls, fmt.Sprintf("process %s;", name))
	}
	for _, d := range envDecls {
		g.b.WriteString(d + "\n")
	}
	for _, d := range processDecls {
		g.b.WriteString(d + "\n")
	}
	return g.b.String()
}

func (g *gen) emitHelper(h helper) {
	p := &procGen{g: g, b: &g.b, ind: "    "}
	params := make([]string, h.params)
	for i := range params {
		params[i] = fmt.Sprintf("a%d", i)
		// Helper parameters may receive tainted arguments at any call
		// site; treat them as tainted so generated assertions stay
		// env-independent.
		p.vars = append(p.vars, variable{name: params[i], tainted: true})
	}
	fmt.Fprintf(&g.b, "proc %s(%s) {\n", h.name, strings.Join(params, ", "))
	p.declare(false)
	p.stmtsNoComm(1 + g.intn(3))
	g.b.WriteString("}\n")
}

func (p *procGen) fresh(prefix string) string {
	p.g.nVar++
	return fmt.Sprintf("%s%d", prefix, p.g.nVar)
}

// declare emits a fresh local with a constant or derived initializer and
// returns its index in vars.
func (p *procGen) declare(allowTaint bool) int {
	name := p.fresh("v")
	expr, tainted := p.expr(allowTaint, 2)
	fmt.Fprintf(p.b, "%svar %s = %s;\n", p.ind, name, expr)
	p.vars = append(p.vars, variable{name: name, tainted: tainted})
	return len(p.vars) - 1
}

// expr generates an integer expression of bounded depth; it reports
// whether the expression may be environment-dependent.
func (p *procGen) expr(allowTaint bool, depth int) (string, bool) {
	if depth == 0 || p.g.intn(3) == 0 {
		// Atom.
		if len(p.vars) > 0 && p.g.intn(2) == 0 {
			for tries := 0; tries < 4; tries++ {
				i := p.g.intn(len(p.vars))
				if p.vars[i].isBool || (p.vars[i].tainted && !allowTaint) {
					continue
				}
				return p.vars[i].name, p.vars[i].tainted
			}
		}
		return fmt.Sprintf("%d", p.g.intn(7)-3), false
	}
	x, tx := p.expr(allowTaint, depth-1)
	switch p.g.intn(4) {
	case 0:
		y, ty := p.expr(allowTaint, depth-1)
		return fmt.Sprintf("(%s + %s)", x, y), tx || ty
	case 1:
		y, ty := p.expr(allowTaint, depth-1)
		return fmt.Sprintf("(%s - %s)", x, y), tx || ty
	case 2:
		y, ty := p.expr(allowTaint, depth-1)
		return fmt.Sprintf("(%s * %s)", x, y), tx || ty
	default:
		return fmt.Sprintf("(%s %% %d)", x, 2+p.g.intn(3)), tx
	}
}

// cond generates a boolean comparison; taint as for expr.
func (p *procGen) cond(allowTaint bool) (string, bool) {
	ops := []string{"<", "<=", "==", "!=", ">", ">="}
	x, tx := p.expr(allowTaint, 1)
	y, ty := p.expr(allowTaint, 1)
	return fmt.Sprintf("%s %s %s", x, ops[p.g.intn(len(ops))], y), tx || ty
}

// stmts generates n statements including communication.
func (p *procGen) stmts(n int) {
	for i := 0; i < n; i++ {
		p.stmt(true)
	}
}

// stmtsNoComm generates statements without visible operations (for
// helper procedures, keeping the call graph simple).
func (p *procGen) stmtsNoComm(n int) {
	for i := 0; i < n; i++ {
		p.stmt(false)
	}
}

func (p *procGen) stmt(comm bool) {
	g := p.g
	choices := 7
	if comm {
		choices = 13
	}
	switch g.intn(choices) {
	case 0:
		p.declare(true)
	case 1: // assignment (never to boolean temporaries)
		var ints []int
		for i, v := range p.vars {
			if !v.isBool {
				ints = append(ints, i)
			}
		}
		if len(ints) == 0 {
			p.declare(true)
			return
		}
		i := ints[g.intn(len(ints))]
		expr, tainted := p.expr(true, 2)
		fmt.Fprintf(p.b, "%s%s = %s;\n", p.ind, p.vars[i].name, expr)
		p.vars[i].tainted = p.vars[i].tainted || tainted
	case 2: // if
		c, _ := p.cond(true)
		fmt.Fprintf(p.b, "%sif (%s) {\n", p.ind, c)
		inner := &procGen{g: g, b: p.b, ind: p.ind + "    ", vars: append([]variable(nil), p.vars...)}
		inner.stmts(1 + g.intn(2))
		p.mergeTaint(inner)
		if g.intn(2) == 0 {
			fmt.Fprintf(p.b, "%s} else {\n", p.ind)
			inner2 := &procGen{g: g, b: p.b, ind: p.ind + "    ", vars: append([]variable(nil), p.vars...)}
			inner2.stmts(1 + g.intn(2))
			p.mergeTaint(inner2)
		}
		fmt.Fprintf(p.b, "%s}\n", p.ind)
	case 3: // bounded loop
		cnt := p.fresh("i")
		iters := 1 + g.intn(p.g.cfg.MaxLoopIters)
		fmt.Fprintf(p.b, "%svar %s = 0;\n", p.ind, cnt)
		fmt.Fprintf(p.b, "%swhile (%s < %d) {\n", p.ind, cnt, iters)
		inner := &procGen{g: g, b: p.b, ind: p.ind + "    ", vars: append([]variable(nil), p.vars...)}
		inner.stmts(1 + g.intn(2))
		p.mergeTaint(inner)
		fmt.Fprintf(p.b, "%s    %s = %s + 1;\n", p.ind, cnt, cnt)
		fmt.Fprintf(p.b, "%s}\n", p.ind)
		p.vars = append(p.vars, variable{name: cnt, tainted: false})
	case 4: // assertion on env-independent data
		c, tainted := p.cond(false)
		if tainted {
			return // cannot happen (allowTaint=false), but stay safe
		}
		tmp := p.fresh("ok")
		fmt.Fprintf(p.b, "%svar %s = %s;\n", p.ind, tmp, c)
		fmt.Fprintf(p.b, "%sVS_assert(%s);\n", p.ind, tmp)
		p.vars = append(p.vars, variable{name: tmp, tainted: false, isBool: true})
	case 5: // helper call
		if len(g.helpers) == 0 {
			p.declare(true)
			return
		}
		h := g.helpers[g.intn(len(g.helpers))]
		args := make([]string, h.params)
		for i := range args {
			e, _ := p.expr(true, 1)
			args[i] = e
		}
		fmt.Fprintf(p.b, "%s%s(%s);\n", p.ind, h.name, strings.Join(args, ", "))
	case 6: // switch on a (possibly tainted) expression
		tag, _ := p.expr(true, 1)
		fmt.Fprintf(p.b, "%sswitch (%s) {\n", p.ind, tag)
		arms := 1 + g.intn(2)
		used := map[int]bool{}
		for a := 0; a < arms; a++ {
			v := g.intn(4)
			if used[v] {
				continue
			}
			used[v] = true
			fmt.Fprintf(p.b, "%scase %d:\n", p.ind, v)
			inner := &procGen{g: g, b: p.b, ind: p.ind + "    ", vars: append([]variable(nil), p.vars...)}
			inner.stmt(comm)
			p.mergeTaint(inner)
		}
		if g.intn(2) == 0 {
			fmt.Fprintf(p.b, "%sdefault:\n", p.ind)
			inner := &procGen{g: g, b: p.b, ind: p.ind + "    ", vars: append([]variable(nil), p.vars...)}
			inner.stmt(comm)
			p.mergeTaint(inner)
		}
		fmt.Fprintf(p.b, "%s}\n", p.ind)
	case 7: // send on system chan (value may be tainted)
		e, _ := p.expr(true, 1)
		fmt.Fprintf(p.b, "%ssend(%s, %s);\n", p.ind, g.sysChans[g.intn(len(g.sysChans))], e)
	case 8: // recv from system chan: conservatively tainted
		v := p.fresh("r")
		fmt.Fprintf(p.b, "%svar %s = 0;\n", p.ind, v)
		fmt.Fprintf(p.b, "%srecv(%s, %s);\n", p.ind, g.sysChans[g.intn(len(g.sysChans))], v)
		p.vars = append(p.vars, variable{name: v, tainted: true})
	case 9: // env input
		v := p.fresh("e")
		fmt.Fprintf(p.b, "%svar %s = 0;\n", p.ind, v)
		fmt.Fprintf(p.b, "%srecv(ein, %s);\n", p.ind, v)
		p.vars = append(p.vars, variable{name: v, tainted: true})
	case 10: // env output
		e, _ := p.expr(true, 1)
		fmt.Fprintf(p.b, "%ssend(eout, %s);\n", p.ind, e)
	case 11: // semaphore section
		if len(g.sems) == 0 {
			p.declare(true)
			return
		}
		s := g.sems[g.intn(len(g.sems))]
		fmt.Fprintf(p.b, "%swait(%s);\n", p.ind, s)
		fmt.Fprintf(p.b, "%ssignal(%s);\n", p.ind, s)
	default: // shared variable traffic: reads are conservatively tainted
		if len(g.shareds) == 0 {
			p.declare(true)
			return
		}
		sv := g.shareds[g.intn(len(g.shareds))]
		if g.intn(2) == 0 {
			e, _ := p.expr(true, 1)
			fmt.Fprintf(p.b, "%svwrite(%s, %s);\n", p.ind, sv, e)
		} else {
			v := p.fresh("s")
			fmt.Fprintf(p.b, "%svar %s = 0;\n", p.ind, v)
			fmt.Fprintf(p.b, "%svread(%s, %s);\n", p.ind, sv, v)
			p.vars = append(p.vars, variable{name: v, tainted: true})
		}
	}
}

// mergeTaint folds taint discovered in a nested scope back into the
// enclosing scope's view of the shared variables (names declared inside
// the nested scope are dropped: MiniC is procedure-scoped, but the
// generator never references inner declarations from outside).
func (p *procGen) mergeTaint(inner *procGen) {
	for i := range p.vars {
		if inner.vars[i].tainted {
			p.vars[i].tainted = true
		}
	}
}
