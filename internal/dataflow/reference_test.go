package dataflow_test

// The dense analysis this package shipped until the sparse taint solver
// replaced it, kept verbatim as the test oracle: reaching definitions
// over nodes x definitions bitsets, the materialised define-use graph
// G~_j, N_I as reachability over its arcs, V_I read off the arcs — the
// paper's definition of Step 2, executed literally. It shares only the
// alias analysis and dataflow.VarSet with the code under test.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/fiveess"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/mgenv"
	"reclose/internal/progs"
	"reclose/internal/randprog"
	"reclose/internal/sem"
	"reclose/internal/synth"
	"reclose/internal/token"
)

// checkAgainstOracle asserts that the shipped analysis of u equals the
// dense oracle's in everything the transformation or a caller can read.
func checkAgainstOracle(t *testing.T, name string, u *cfg.Unit) {
	t.Helper()
	got, want := dataflow.Analyze(u), refAnalyze(u)
	flat := func(m map[string]map[int]bool) []string {
		var out []string
		for proc, set := range m {
			for i, ok := range set {
				if ok {
					out = append(out, fmt.Sprintf("%s.%d", proc, i))
				}
			}
		}
		sort.Strings(out)
		return out
	}
	keys := func(m map[string]bool) []string { return dataflow.VarSet(m).Sorted() }
	if g, w := flat(got.EnvParams), flat(want.EnvParams); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: EnvParams = %v, oracle %v", name, g, w)
	}
	if g, w := keys(got.EnvTainted), keys(want.EnvTainted); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: EnvTainted = %v, oracle %v", name, g, w)
	}
	if g, w := keys(got.TaintedObjs), keys(want.TaintedObjs); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: TaintedObjs = %v, oracle %v", name, g, w)
	}
	for _, proc := range u.Order {
		g, w := got.Proc(proc), want.Procs[proc]
		if !reflect.DeepEqual(g.EnvUse, w.EnvUse) {
			t.Errorf("%s: proc %s: EnvUse differs from the oracle\n%s", name, proc, g)
		}
		if !reflect.DeepEqual(g.NI, w.NI) {
			t.Errorf("%s: proc %s: NI differs from the oracle\n%s", name, proc, g)
		}
		for id := range w.VI {
			if gv, wv := g.VI(id).Sorted(), w.VI[id].Sorted(); !reflect.DeepEqual(gv, wv) {
				t.Errorf("%s: proc %s: VI(n%d) = %v, oracle %v", name, proc, id, gv, wv)
			}
		}
		if gd, wd := fmt.Sprint(g.DerefEnvPointer), fmt.Sprint(w.DerefEnvPointer); gd != wd {
			t.Errorf("%s: proc %s: DerefEnvPointer = %s, oracle %s", name, proc, gd, wd)
		}
		gdu, wdu := g.DefUse(), append([]dataflow.DUArc(nil), w.DU...)
		for _, arcs := range [][]dataflow.DUArc{gdu, wdu} {
			sort.Slice(arcs, func(i, j int) bool {
				a, b := arcs[i], arcs[j]
				if a.From != b.From {
					return a.From < b.From
				}
				if a.To != b.To {
					return a.To < b.To
				}
				return a.Var < b.Var
			})
		}
		if len(gdu) != len(wdu) || len(gdu) > 0 && !reflect.DeepEqual(gdu, wdu) {
			t.Errorf("%s: proc %s: DefUse() has %d arcs, the oracle's define-use graph %d (or they differ)",
				name, proc, len(gdu), len(wdu))
		}
	}
}

// checkSourceAgainstOracle checks the open program, its closed form
// (Lemma 5: both sides must find nothing) and, when the naive
// composition exists, the program composed with its explicit
// environment.
func checkSourceAgainstOracle(t *testing.T, name, src string) {
	t.Helper()
	u, err := core.CompileSource(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkAgainstOracle(t, name, u)
	if closed, _, err := core.Close(u); err == nil {
		checkAgainstOracle(t, name+" (closed)", closed)
	}
	if naive, _, err := mgenv.ComposeSource(src, 2); err == nil {
		checkAgainstOracle(t, name+" (composed)", naive)
	}
}

func TestOracleRandprog(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cfg := randprog.Config{Processes: 1 + int(seed%3), Helpers: int(seed % 4), MaxStmts: 4 + int(seed%6)}
		checkSourceAgainstOracle(t, fmt.Sprintf("randprog seed %d", seed), randprog.Generate(rand.New(rand.NewSource(seed)), cfg))
	}
}

func TestOracleSynth(t *testing.T) {
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		for _, n := range []int{200, 1000} {
			checkSourceAgainstOracle(t, fmt.Sprintf("synth %s n=%d", shape, n), synth.Program(shape, n))
		}
	}
}

func TestOracleWorkloads(t *testing.T) {
	sources := map[string]string{
		"5ess small":        fiveess.Source(fiveess.Scale("small")),
		"5ess medium":       fiveess.Source(fiveess.Scale("medium")),
		"5ess stub":         fiveess.Source(fiveess.Config{Handlers: 4, Lines: 3, Features: 40, Chain: 8, WithStub: true}),
		"leader n4":         leaderelect.Source(leaderelect.Config{Nodes: 4}),
		"leader n3 seeded":  leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}),
		"lock c3 r2":        lockserver.Source(lockserver.Config{Clients: 3, Rounds: 2}),
		"lock c3 r2 greedy": lockserver.Source(lockserver.Config{Clients: 3, Rounds: 2, GreedyClient: true}),
		"figure 2":          progs.FigureP,
		"figure 3":          progs.FigureQ,
		"simple taint":      progs.SimpleTaint,
		"path independent":  progs.PathIndependent,
		"producer consumer": progs.ProducerConsumer,
		"deadlock prone":    progs.DeadlockProne,
		"assert violation":  progs.AssertViolation,
		"router":            progs.Router,
		"interproc":         progs.Interproc,
		"forwarder":         progs.Forwarder,
		"philosophers":      progs.Philosophers(4),
		"pipeline":          progs.Pipeline(3, 2),
		"router scaled":     progs.RouterScaled(3, 3),
		"lossy transfer":    progs.LossyTransfer(2, 3),
	}
	files, err := filepath.Glob("../../cmd/reclose/testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no reclose testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sources[filepath.Base(file)] = string(src)
	}
	for name, src := range sources {
		checkSourceAgainstOracle(t, name, src)
	}
}

// TestOraclePointers covers what the generators above never emit:
// may-alias stores, weak and strong updates through pointers, clobbers
// by env-tainted callees, arrays, stores through env-dependent pointers
// and unreachable code, in random combinations.
func TestOraclePointers(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkSourceAgainstOracle(t, fmt.Sprintf("pointer program seed %d", seed), randprog.Pointers(rand.New(rand.NewSource(seed))))
	}
}

// refDef is one definition site of a variable.
type refDef struct {
	ID     int
	Node   int    // defining node ID, or -1 for the entry pseudo-definition
	Var    string // variable defined
	Strong bool   // strong defs kill other defs of the same variable
	Env    bool   // the defined value is provided by the environment E_S
}

// refProc is the oracle's result for one procedure.
type refProc struct {
	Graph           *cfg.Graph
	Uses            []dataflow.VarSet
	Defs            [][]*refDef
	DU              []dataflow.DUArc
	EnvUse          []bool
	NI              []bool
	VI              []dataflow.VarSet
	DerefEnvPointer []int
}

func (r *refProc) hasTaint() bool {
	for _, v := range r.VI {
		if len(v) > 0 {
			return true
		}
	}
	return false
}

// refResult is the oracle's whole-program result.
type refResult struct {
	Procs       map[string]*refProc
	EnvParams   map[string]map[int]bool
	EnvTainted  map[string]bool
	TaintedObjs map[string]bool
}

func refAssignParts(s ast.Stmt) (lhs ast.Expr, rhs ast.Expr) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return s.LHS, s.RHS
	case *ast.VarStmt:
		return s.Name, s.Init
	}
	return nil, nil
}

// refContext carries the interprocedural facts a single-procedure
// analysis depends on.
type refContext struct {
	unit *cfg.Unit
	// envParams is the current (possibly enlarged) set of env parameter
	// indices per procedure.
	envParams map[string]map[int]bool
	// envTainted marks procedures that may write environment-dependent
	// values through pointer arguments (or anywhere).
	envTainted map[string]bool
	// taintedObjs marks channels and shared variables through which some
	// process may send or write an environment-dependent value. The
	// paper matches procedure outputs to procedure inputs (o = i, §3);
	// data-carrying communication objects are those connections, so a
	// receive from a tainted object defines its target with an
	// environment-dependent value.
	taintedObjs map[string]bool
}

// refAnalyzeProc runs the full per-procedure analysis of Step 2 of the
// algorithm for graph g under the given interprocedural context.
func refAnalyzeProc(g *cfg.Graph, ctx *refContext) *refProc {
	pt := dataflow.AnalyzeAliases(g)
	r := &refProc{
		Graph:  g,
		Uses:   make([]dataflow.VarSet, len(g.Nodes)),
		Defs:   make([][]*refDef, len(g.Nodes)),
		EnvUse: make([]bool, len(g.Nodes)),
		NI:     make([]bool, len(g.Nodes)),
		VI:     make([]dataflow.VarSet, len(g.Nodes)),
	}

	var defs []*refDef
	newDef := func(node int, v string, strong, env bool) *refDef {
		d := &refDef{ID: len(defs), Node: node, Var: v, Strong: strong, Env: env}
		defs = append(defs, d)
		return d
	}

	// Entry pseudo-definitions: every parameter is defined before the
	// start node executes — by the environment for env parameters, by
	// the calling procedure otherwise.
	entryDefs := make([]*refDef, 0, len(g.Params))
	for i, p := range g.Params {
		entryDefs = append(entryDefs, newDef(-1, p, true, ctx.envParams[g.ProcName][i]))
	}

	arrays := ctx.unit.Arrays[g.ProcName]
	for _, n := range g.Nodes {
		uses := dataflow.NewVarSet()
		switch n.Kind {
		case cfg.NAssign:
			lhs, rhs := refAssignParts(n.Stmt)
			if rhs != nil {
				refExprUses(rhs, pt, uses)
			}
			if vs, ok := n.Stmt.(*ast.VarStmt); ok && vs.Size != nil {
				refExprUses(vs.Size, pt, uses)
			}
			switch lhs := lhs.(type) {
			case *ast.Ident:
				strong := !arrays[lhs.Name]
				r.Defs[n.ID] = append(r.Defs[n.ID], newDef(n.ID, lhs.Name, strong, false))
			case *ast.IndexExpr:
				refExprUses(lhs.Index, pt, uses)
				r.Defs[n.ID] = append(r.Defs[n.ID], newDef(n.ID, lhs.X.Name, false, false))
			case *ast.UnaryExpr: // *p = rhs
				if id, ok := lhs.X.(*ast.Ident); ok {
					uses.Add(id.Name)
					targets := pt.PointsToSet(id.Name)
					strong := len(targets) == 1
					for _, t := range targets.Sorted() {
						r.Defs[n.ID] = append(r.Defs[n.ID], newDef(n.ID, t, strong && !arrays[t], false))
					}
				}
			}
		case cfg.NCond:
			refExprUses(n.Cond, pt, uses)
		case cfg.NCall:
			cs := n.CallStmt()
			name := cs.Name.Name
			if b, ok := sem.Builtins[name]; ok {
				for i := 0; i < len(cs.Args); i++ {
					if b.HasObj && i == 0 {
						continue
					}
					if i == b.OutArg {
						out := cs.Args[i].(*ast.Ident)
						// recv on an env-facing channel yields a value
						// provided by the environment; so does recv/vread
						// on an object some process may fill with
						// env-dependent data.
						env := false
						if b.HasObj {
							if obj, ok := cs.Args[0].(*ast.Ident); ok &&
								(ctx.unit.EnvChans[obj.Name] || ctx.taintedObjs[obj.Name]) {
								env = true
							}
						}
						r.Defs[n.ID] = append(r.Defs[n.ID], newDef(n.ID, out.Name, !arrays[out.Name], env))
						continue
					}
					refExprUses(cs.Args[i], pt, uses)
				}
			} else {
				var argNames []string
				for _, a := range cs.Args {
					if id, ok := a.(*ast.Ident); ok {
						uses.Add(id.Name)
						argNames = append(argNames, id.Name)
					} else {
						refExprUses(a, pt, uses)
					}
				}
				// The callee may read and write every variable reachable
				// through pointers from the arguments.
				reach := pt.Closure(argNames)
				uses.AddAll(reach)
				calleeEnv := ctx.envTainted[name]
				for _, v := range reach.Sorted() {
					r.Defs[n.ID] = append(r.Defs[n.ID], newDef(n.ID, v, false, false))
					if calleeEnv {
						r.Defs[n.ID] = append(r.Defs[n.ID], newDef(n.ID, v, false, true))
					}
				}
			}
		}
		r.Uses[n.ID] = uses
	}

	// Reaching definitions over bitsets.
	nd := len(defs)
	words := (nd + 63) / 64
	type bits []uint64
	newBits := func() bits { return make(bits, words) }
	or := func(dst, src bits) bool {
		changed := false
		for i := range dst {
			if dst[i]|src[i] != dst[i] {
				dst[i] |= src[i]
				changed = true
			}
		}
		return changed
	}

	defsByVar := make(map[string][]*refDef)
	for _, d := range defs {
		defsByVar[d.Var] = append(defsByVar[d.Var], d)
	}

	gen := make([]bits, len(g.Nodes))
	kill := make([]bits, len(g.Nodes))
	for _, n := range g.Nodes {
		gen[n.ID] = newBits()
		kill[n.ID] = newBits()
		for _, d := range r.Defs[n.ID] {
			gen[n.ID][d.ID/64] |= 1 << (d.ID % 64)
			if d.Strong {
				for _, other := range defsByVar[d.Var] {
					if other.ID != d.ID {
						kill[n.ID][other.ID/64] |= 1 << (other.ID % 64)
					}
				}
			}
		}
	}

	in := make([]bits, len(g.Nodes))
	out := make([]bits, len(g.Nodes))
	for i := range g.Nodes {
		in[i] = newBits()
		out[i] = newBits()
	}
	// The entry pseudo-definitions flow into the start node.
	entryIn := newBits()
	for _, d := range entryDefs {
		entryIn[d.ID/64] |= 1 << (d.ID % 64)
	}

	// Worklist iteration in reverse-postorder-ish (node creation order is
	// roughly topological for structured code, so plain order converges
	// quickly).
	pred := preds(g)
	workQ := make([]int, 0, len(g.Nodes))
	inQ := make([]bool, len(g.Nodes))
	push := func(id int) {
		if !inQ[id] {
			inQ[id] = true
			workQ = append(workQ, id)
		}
	}
	for _, n := range g.Nodes {
		push(n.ID)
	}
	for len(workQ) > 0 {
		id := workQ[0]
		workQ = workQ[1:]
		inQ[id] = false
		n := g.Nodes[id]
		if n == g.Entry {
			or(in[id], entryIn)
		}
		for _, p := range pred[id] {
			or(in[id], out[p])
		}
		// out = gen ∪ (in − kill)
		changed := false
		for w := 0; w < words; w++ {
			nv := gen[id][w] | (in[id][w] &^ kill[id][w])
			if nv != out[id][w] {
				out[id][w] = nv
				changed = true
			}
		}
		if changed {
			for _, a := range n.Out {
				push(a.To.ID)
			}
		}
	}

	// Build the define-use graph and the env-use marking.
	duInto := make([][]int, len(g.Nodes)) // DU arc indices by To
	envReach := make([]dataflow.VarSet, len(g.Nodes))
	for _, n := range g.Nodes {
		id := n.ID
		envReach[id] = dataflow.NewVarSet()
		if len(r.Uses[id]) == 0 {
			continue
		}
		for _, v := range r.Uses[id].Sorted() {
			for _, d := range defsByVar[v] {
				if in[id][d.ID/64]&(1<<(d.ID%64)) == 0 {
					continue
				}
				if d.Env {
					r.EnvUse[id] = true
					envReach[id].Add(v)
				}
				if d.Node >= 0 && !d.Env {
					arcIdx := len(r.DU)
					r.DU = append(r.DU, dataflow.DUArc{From: d.Node, To: id, Var: v})
					duInto[id] = append(duInto[id], arcIdx)
				}
			}
		}
	}

	// N_I: nodes reachable from N_Es by define-use arcs.
	duFrom := make([][]int, len(g.Nodes))
	for i, a := range r.DU {
		duFrom[a.From] = append(duFrom[a.From], i)
	}
	var stack []int
	for id := range g.Nodes {
		if r.EnvUse[id] {
			r.NI[id] = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ai := range duFrom[id] {
			to := r.DU[ai].To
			if !r.NI[to] {
				r.NI[to] = true
				stack = append(stack, to)
			}
		}
	}

	// V_I(n).
	for id := range g.Nodes {
		vi := dataflow.NewVarSet()
		if r.NI[id] {
			vi.AddAll(envReach[id])
			for _, ai := range duInto[id] {
				a := r.DU[ai]
				if r.NI[a.From] {
					vi.Add(a.Var)
				}
			}
		}
		r.VI[id] = vi
	}

	// Detect stores through environment-dependent pointers (unsupported:
	// env inputs are scalar values; see DESIGN.md).
	for _, n := range g.Nodes {
		if n.Kind != cfg.NAssign {
			continue
		}
		lhs, _ := refAssignParts(n.Stmt)
		if u, ok := lhs.(*ast.UnaryExpr); ok && u.Op == token.MUL {
			if id, ok := u.X.(*ast.Ident); ok && r.VI[n.ID].Has(id.Name) {
				r.DerefEnvPointer = append(r.DerefEnvPointer, n.ID)
			}
		}
	}

	return r
}

// preds lists every node's predecessors by ID, one entry per arc. Graphs
// keep no predecessor lists, so the oracle reverses the Out lists.
func preds(g *cfg.Graph) [][]int {
	out := make([][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, a := range n.Out {
			out[a.To.ID] = append(out[a.To.ID], n.ID)
		}
	}
	return out
}

// refExprUses adds to dst the variables whose values are read by e:
// identifiers (except under &), arrays, pointers, and for *p the
// may-point-to set of p.
func refExprUses(e ast.Expr, pt *dataflow.PointsTo, dst dataflow.VarSet) {
	switch e := e.(type) {
	case *ast.Ident:
		dst.Add(e.Name)
	case *ast.IntLit, *ast.BoolLit, *ast.UndefLit:
	case *ast.TossExpr:
		refExprUses(e.Bound, pt, dst)
	case *ast.IndexExpr:
		dst.Add(e.X.Name)
		refExprUses(e.Index, pt, dst)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			// &x reads no value.
		case token.MUL:
			if id, ok := e.X.(*ast.Ident); ok {
				dst.Add(id.Name)
				dst.AddAll(pt.PointsToSet(id.Name))
			} else {
				refExprUses(e.X, pt, dst)
			}
		default:
			refExprUses(e.X, pt, dst)
		}
	case *ast.BinaryExpr:
		refExprUses(e.X, pt, dst)
		refExprUses(e.Y, pt, dst)
	}
}

// Analyze runs the whole-program analysis of Step 2 of the algorithm on
// a compiled unit: per-procedure alias analysis, define-use graphs, and
// V_I sets, iterated with interprocedural propagation of environment
// inputs until a fixpoint is reached.
//
// Three facts flow across procedure boundaries, all monotonically:
//
//  1. If a call site passes an argument in V_I (an environment-dependent
//     value) for parameter i of procedure f, then parameter i of f is
//     treated as provided by the environment (per the discussion of
//     Step 5 in §4 of the paper).
//  2. If an environment-dependent value is sent over a channel or
//     written to a shared variable, the object is tainted, and receives
//     from it define environment-dependent values (the o = i matching
//     of §3 applied to data-carrying communication objects).
//  3. If a callee may compute with environment values (EnvTainted), the
//     variables reachable through pointers from the call's arguments may
//     be written with environment-dependent values at the call site.
//
// The fixpoint is computed with a worklist: a procedure is re-analyzed
// only when one of the facts it depends on grows. Termination: the sets
// only grow and are bounded by the program size.
func refAnalyze(u *cfg.Unit) *refResult {
	ctx := &refContext{
		unit:        u,
		envParams:   make(map[string]map[int]bool),
		envTainted:  make(map[string]bool),
		taintedObjs: make(map[string]bool),
	}
	for proc, set := range u.EnvParams {
		cp := make(map[int]bool, len(set))
		for i := range set {
			cp[i] = true
		}
		ctx.envParams[proc] = cp
	}

	// Static dependency maps: who calls whom, and who reads which
	// object (recv/vread out-arguments).
	callers := make(map[string][]string) // callee -> callers
	readers := make(map[string][]string) // object -> procs receiving from it
	for _, name := range u.Order {
		for _, n := range u.Procs[name].Nodes {
			if n.Kind != cfg.NCall {
				continue
			}
			cs := n.CallStmt()
			if b, ok := sem.Builtins[cs.Name.Name]; ok {
				if b.OutArg >= 0 && b.HasObj && len(cs.Args) > 0 {
					if obj, ok := cs.Args[0].(*ast.Ident); ok {
						readers[obj.Name] = append(readers[obj.Name], name)
					}
				}
				continue
			}
			callers[cs.Name.Name] = append(callers[cs.Name.Name], name)
		}
	}

	res := &refResult{Procs: make(map[string]*refProc, len(u.Order))}

	inQ := make(map[string]bool, len(u.Order))
	var queue []string
	push := func(name string) {
		if _, exists := u.Procs[name]; exists && !inQ[name] {
			inQ[name] = true
			queue = append(queue, name)
		}
	}
	for _, name := range u.Order {
		push(name)
	}

	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		inQ[name] = false

		pr := refAnalyzeProc(u.Procs[name], ctx)
		res.Procs[name] = pr

		// Fact 1: env-dependent arguments taint callee parameters.
		for _, n := range pr.Graph.Nodes {
			if n.Kind != cfg.NCall {
				continue
			}
			cs := n.CallStmt()
			if _, isBuiltin := sem.Builtins[cs.Name.Name]; isBuiltin {
				// Fact 2: env-dependent data entering an object taints it.
				if cs.Name.Name == "send" || cs.Name.Name == "vwrite" {
					obj, ok := cs.Args[0].(*ast.Ident)
					if !ok || ctx.taintedObjs[obj.Name] {
						continue
					}
					if id, ok := cs.Args[1].(*ast.Ident); ok && pr.VI[n.ID].Has(id.Name) {
						ctx.taintedObjs[obj.Name] = true
						for _, r := range readers[obj.Name] {
							push(r)
						}
					}
				}

				continue
			}
			callee := cs.Name.Name
			for i, a := range cs.Args {
				id, ok := a.(*ast.Ident)
				if !ok {
					continue
				}
				if pr.VI[n.ID].Has(id.Name) && !ctx.envParams[callee][i] {
					if ctx.envParams[callee] == nil {
						ctx.envParams[callee] = make(map[int]bool)
					}
					ctx.envParams[callee][i] = true
					push(callee)
				}
			}
		}

		// Fact 3: a procedure that computes with env values may write env
		// values through pointer arguments; its callers must account for
		// that.
		if !ctx.envTainted[name] && (pr.hasTaint() || len(ctx.envParams[name]) > 0) {
			ctx.envTainted[name] = true
			for _, c := range callers[name] {
				push(c)
			}
		}
	}

	res.EnvParams = ctx.envParams
	res.EnvTainted = ctx.envTainted
	res.TaintedObjs = ctx.taintedObjs
	return res
}
