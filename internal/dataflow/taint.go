package dataflow

import (
	"math/bits"
	"slices"

	"reclose/internal/cfg"
)

// procContext carries the interprocedural facts a single-procedure
// taint pass depends on.
type procContext struct {
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
	// work counts facts-building node visits, worklist pops and facts
	// pushed along arcs: the analysis's cost in units that repeat exactly.
	work      int
	vi, viOff []int32 // solve's V_I buffers (a ProcResult keeps a copy)
}

// envObj reports whether a recv/vread on obj yields a value provided by
// the environment: obj is an env-facing channel, or some process may
// fill it with env-dependent data.
func (c *procContext) envObj(obj string) bool {
	return c.unit.EnvChans[obj] || c.taintedObjs[obj]
}

// solve computes EnvUse, N_I and V_I of one procedure under ctx as a
// forward may-taint problem over variables. A fact v<<1|e at the entry
// of node n says that a definition of v reaches n which is provided by
// the environment (e = 1) or made by a node of N_I (e = 0). A node joins
// N_I when a variable it uses carries either fact; every definition at a
// node of N_I generates (v, 0), an environment-provided one (v, 1), and
// a strong definition that generates neither kills both. The least
// fixpoint is the paper's definition: v ∈ V_I(n) iff some definition d
// of v reaches n with d environment-provided or d's node in N_I, and
// reaching definitions propagate one definition at a time.
//
// Fact sets are sorted slices that are never modified once built, so a
// node that changes nothing hands its input on by reference; the cost is
// the number of facts that reach each node, not nodes × definitions.
func (f *procFacts) solve(ctx *procContext) *ProcResult {
	g, n := f.g, len(f.g.Nodes)
	r := &ProcResult{
		Proc: g.ProcName, Graph: g, vars: f.vars, ctx: ctx,
		EnvUse: make([]bool, n), NI: make([]bool, n),
	}
	in := make([][]int32, n)
	for i, v := range f.params {
		if ctx.envParams[g.ProcName][i] {
			in[g.Entry.ID] = with(in[g.Entry.ID], v<<1|1)
		}
	}

	// The worklist is a bitmap over reverse-postorder positions, swept
	// from the front; only a fact crossing a back arc needs another sweep.
	dirty := make([]uint64, (n+63)/64)
	for p := 0; p < n; p++ {
		dirty[p/64] |= 1 << (p % 64)
	}
	for again := true; again; {
		again = false
		for w := range dirty {
			for dirty[w] != 0 {
				b := bits.TrailingZeros64(dirty[w])
				dirty[w] &^= 1 << b
				id := int(f.rpo[w*64+b])
				out := f.transfer(id, in[id], r, ctx)
				ctx.work++
				for _, a := range g.Nodes[id].Out {
					s := a.To.ID
					ctx.work += len(out)
					merged := union(in[s], out)
					if len(merged) == len(in[s]) {
						continue
					}
					in[s] = merged
					p := int(f.rpoPos[s])
					dirty[p/64] |= 1 << (p % 64)
					again = again || p/64 < w
				}
			}
		}
	}

	vi, off := ctx.vi[:0], slices.Grow(ctx.viOff[:0], n+1)
	for id := range f.nodes {
		off = append(off, int32(len(vi)))
		if !r.NI[id] {
			continue
		}
		for _, v := range f.uses(id) {
			env := has(in[id], v<<1|1)
			r.EnvUse[id] = r.EnvUse[id] || env
			if env || has(in[id], v<<1) {
				vi = append(vi, v)
			}
		}
		if slices.Contains(vi[off[id]:], f.nodes[id].deref) {
			r.DerefEnvPointer = append(r.DerefEnvPointer, id)
		}
	}
	if len(vi) > 0 {
		r.vi, r.viOff = slices.Clone(vi), slices.Clone(append(off, int32(len(vi))))
	}
	ctx.vi, ctx.viOff = vi, off
	return r
}

// transfer updates NI[id] from the facts at the node's entry and returns
// the facts at its exit.
func (f *procFacts) transfer(id int, in []int32, r *ProcResult, ctx *procContext) []int32 {
	nf := &f.nodes[id]
	for _, v := range f.uses(id) {
		if r.NI[id] {
			break
		}
		r.NI[id] = has(in, v<<1) || has(in, v<<1|1)
	}
	defs := f.defs(id)
	if len(defs) == 0 {
		return in
	}
	// gen[e]: the node's definitions generate the facts (v, e). The
	// out-argument of a receive from an env object is provided by E_S,
	// not made by the node; a clobber by an env-tainted callee is both.
	env := ctx.envObj(nf.outObj)
	gen := [2]bool{r.NI[id] && !env, env || ctx.envTainted[nf.callee]}
	out := in
	for _, d := range defs {
		for e, g := range gen {
			switch x := d.v<<1 | int32(e); {
			case g:
				out = with(out, x)
			case d.strong:
				out = without(out, x)
			}
		}
	}
	return out
}

func has(s []int32, x int32) bool {
	_, ok := slices.BinarySearch(s, x)
	return ok
}

// with returns s ∪ {x}, and s itself when x is already a member.
func with(s []int32, x int32) []int32 {
	i, ok := slices.BinarySearch(s, x)
	if ok {
		return s
	}
	out := make([]int32, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// without returns s − {x}, and s itself when x is not a member.
func without(s []int32, x int32) []int32 {
	i, ok := slices.BinarySearch(s, x)
	if !ok {
		return s
	}
	out := make([]int32, len(s)-1)
	copy(out, s[:i])
	copy(out[i:], s[i+1:])
	return out
}

// union returns a ∪ b, and a or b itself when that is the union.
func union(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 || len(a) == len(b) && &a[0] == &b[0] {
		return a
	}
	for _, x := range b {
		a = with(a, x)
	}
	return a
}
