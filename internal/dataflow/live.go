package dataflow

import (
	"reclose/internal/ast"
	"reclose/internal/cfg"
)

// Liveness is the result of the backward live-variable analysis for one
// procedure: for each node, the set of variables whose current value may
// still be read on some path from (and including) the node.
type Liveness struct {
	Graph *cfg.Graph
	// In[n] is the live set just before node n executes.
	In []VarSet
	// Out[n] is the live set just after node n executes.
	Out []VarSet
}

// AnalyzeLiveness runs classic backward may-liveness over the procedure
// graph. Uses and defs follow the same model as the forward analysis
// (pointer dereferences use the may-point-to sets; weak defs do not
// kill). Variables passed to user procedures, or reachable from such
// arguments through pointers, are live at the call; so are all pointees
// of any address-taken variable at pointer stores (conservative).
func AnalyzeLiveness(g *cfg.Graph, arrays map[string]bool) *Liveness {
	f := buildFacts(g, arrays)
	lv := &Liveness{
		Graph: g,
		In:    make([]VarSet, len(g.Nodes)),
		Out:   make([]VarSet, len(g.Nodes)),
	}

	use := make([]VarSet, len(g.Nodes))
	defStrong := make([][]string, len(g.Nodes)) // strongly-defined (killed) vars
	for id := range f.nodes {
		use[id] = NewVarSet()
		for _, v := range f.uses(id) {
			use[id].Add(f.vars[v])
		}
		for _, d := range f.defs(id) {
			if d.strong {
				defStrong[id] = append(defStrong[id], f.vars[d.v])
			}
		}
	}

	// Backward fixpoint: In = use ∪ (Out − def); Out = ∪ In(succ).
	for changed := true; changed; {
		changed = false
		for i := len(g.Nodes) - 1; i >= 0; i-- {
			n := g.Nodes[i]
			out := NewVarSet()
			for _, a := range n.Out {
				out.AddAll(lv.In[a.To.ID])
			}
			in := use[n.ID].Clone()
			killed := NewVarSet(defStrong[n.ID]...)
			for v := range out {
				if !killed.Has(v) {
					in.Add(v)
				}
			}
			if lv.Out[n.ID] == nil || len(out) != len(lv.Out[n.ID]) || !subset(out, lv.Out[n.ID]) {
				lv.Out[n.ID] = out
				changed = true
			}
			if lv.In[n.ID] == nil || len(in) != len(lv.In[n.ID]) || !subset(in, lv.In[n.ID]) {
				lv.In[n.ID] = in
				changed = true
			}
		}
	}
	return lv
}

func subset(a, b VarSet) bool {
	for v := range a {
		if !b.Has(v) {
			return false
		}
	}
	return true
}

// DeadAssignments returns the IDs of assignment nodes whose defined
// variable is dead immediately afterwards and whose right-hand side has
// no side effects (no VS_toss — removing a toss would change the
// branching structure). Such assignments are left behind when the
// closing transformation eliminates all uses of a variable.
func (lv *Liveness) DeadAssignments(arrays map[string]bool) []int {
	var out []int
	for _, n := range lv.Graph.Nodes {
		if n.Kind != cfg.NAssign {
			continue
		}
		lhs, rhs := assignParts(n.Stmt)
		id, ok := lhs.(*ast.Ident)
		if !ok || arrays[id.Name] {
			continue
		}
		if rhs != nil && ast.HasToss(rhs) {
			continue
		}
		if vs, isVar := n.Stmt.(*ast.VarStmt); isVar && vs.Size != nil {
			continue // array allocation
		}
		if !lv.Out[n.ID].Has(id.Name) {
			out = append(out, n.ID)
		}
	}
	return out
}
