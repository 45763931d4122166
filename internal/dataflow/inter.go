package dataflow

import (
	"fmt"
	"sort"

	"reclose/internal/ast"
	"reclose/internal/cfg"
)

// Result is the whole-program analysis result.
type Result struct {
	Unit  *cfg.Unit
	Procs map[string]*ProcResult
	// EnvParams is the effective environment interface after
	// interprocedural propagation: it contains the declared env
	// parameters plus every parameter that may receive an
	// environment-dependent argument at some call site.
	EnvParams map[string]map[int]bool
	// EnvTainted marks procedures containing at least one node with a
	// non-empty V_I (they may compute with environment values).
	EnvTainted map[string]bool
	// TaintedObjs marks channels and shared variables that may carry
	// environment-dependent data between processes.
	TaintedObjs map[string]bool
	// Iterations is the number of per-procedure taint passes the
	// worklist performed before reaching the fixpoint. (The context-free
	// facts of a procedure are built once, whatever this count.)
	Iterations int

	factsBuilt int // procedures whose facts were built
	work       int // see procContext.work
}

// Proc returns the per-procedure result.
func (r *Result) Proc(name string) *ProcResult { return r.Procs[name] }

// Err returns an error if the program uses a construct the
// transformation does not support (stores through environment-dependent
// pointers), and nil otherwise.
func (r *Result) Err() error {
	var names []string
	for name := range r.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pr := r.Procs[name]
		if len(pr.DerefEnvPointer) > 0 {
			n := pr.Graph.Nodes[pr.DerefEnvPointer[0]]
			return fmt.Errorf("proc %s: node n%d at %s stores through an environment-dependent pointer; environment inputs are scalar values (see DESIGN.md)",
				name, n.ID, n.Pos)
		}
	}
	return nil
}

// Analyze runs the whole-program analysis of Step 2 of the algorithm on
// a compiled unit: the context-free facts of every procedure (aliases,
// uses, definitions) once, then the N_I and V_I sets by a taint pass per
// procedure, iterated with interprocedural propagation of environment
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
// The fixpoint is computed with a worklist: a procedure's taint pass is
// re-run only when one of the facts it depends on grows. The worklist
// starts callers-first (reverse postorder of the call graph from the
// process roots), so fact 1 reaches a callee before its first pass.
// Termination: the sets only grow and are bounded by the program size.
func Analyze(u *cfg.Unit) *Result {
	ctx := &procContext{
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
	res := &Result{Unit: u, Procs: make(map[string]*ProcResult, len(u.Order))}

	// Static dependency maps: who calls whom with something to clobber
	// (only those call sites read fact 3), and who reads which object
	// (recv/vread out-arguments).
	facts := make([]*procFacts, len(u.Order))
	index := make(map[string]int, len(u.Order))
	callers := make(map[string][]int) // callee -> callers
	readers := make(map[string][]int) // object -> procs receiving from it
	b := &factsBuilder{ids: make(map[string]int32)}
	for i, name := range u.Order {
		f := b.build(u.Procs[name], u.Arrays[name])
		facts[i], index[name] = f, i
		res.factsBuilt++
		ctx.work += len(f.nodes)
		for id := range f.nodes {
			switch nf := &f.nodes[id]; {
			case nf.outObj != "":
				readers[nf.outObj] = append(readers[nf.outObj], i)
			case nf.defs.hi > nf.defs.lo && nf.callee != "":
				callers[nf.callee] = append(callers[nf.callee], i)
			}
		}
	}

	roots := make([]int, len(u.Processes))
	for i, name := range u.Processes {
		roots[i] = index[name]
	}
	queue := b.reversePostorder(len(facts), roots, func(v, i int) int {
		if calls := facts[v].calls; i < len(calls) {
			if callee, ok := index[calls[i].CallStmt().Name.Name]; ok {
				return callee
			}
			return v // no such procedure: an arc to itself is never followed
		}
		return -1
	})
	inQ := make([]bool, len(facts))
	for i := range inQ {
		inQ[i] = true
	}
	push := func(procs ...int) {
		for _, i := range procs {
			if !inQ[i] {
				inQ[i] = true
				queue = append(queue, int32(i))
			}
		}
	}

	for len(queue) > 0 {
		i := int(queue[0])
		queue = queue[1:]
		inQ[i] = false
		res.Iterations++

		name, f := u.Order[i], facts[i]
		pr := f.solve(ctx)
		res.Procs[name] = pr

		// Fact 2: env-dependent data entering an object taints it.
		for _, n := range f.sends {
			cs := n.CallStmt()
			obj, ok := cs.Args[0].(*ast.Ident)
			if !ok || ctx.taintedObjs[obj.Name] {
				continue
			}
			if id, ok := cs.Args[1].(*ast.Ident); ok && pr.InVI(n.ID, id.Name) {
				ctx.taintedObjs[obj.Name] = true
				push(readers[obj.Name]...)
			}
		}
		// Fact 1: env-dependent arguments taint callee parameters.
		for _, n := range f.calls {
			cs := n.CallStmt()
			callee := cs.Name.Name
			for k, a := range cs.Args {
				id, ok := a.(*ast.Ident)
				if !ok || !pr.InVI(n.ID, id.Name) || ctx.envParams[callee][k] {
					continue
				}
				if ctx.envParams[callee] == nil {
					ctx.envParams[callee] = make(map[int]bool)
				}
				ctx.envParams[callee][k] = true
				if j, ok := index[callee]; ok {
					push(j)
				}
			}
		}
		// Fact 3: a procedure that computes with env values may write env
		// values through pointer arguments; its callers must account for
		// that.
		if !ctx.envTainted[name] && (pr.HasTaint() || len(ctx.envParams[name]) > 0) {
			ctx.envTainted[name] = true
			push(callers[name]...)
		}
	}

	res.EnvParams = ctx.envParams
	res.EnvTainted = ctx.envTainted
	res.TaintedObjs = ctx.taintedObjs
	res.work = ctx.work
	ctx.vi, ctx.viOff = nil, nil
	return res
}
