package dataflow

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"reclose/internal/cfg"
)

// DUArc is one arc of the define-use graph Ğ_j: the statement at node
// From defines Var, and the statement at node To may use that value
// (there is a control-flow path from From to To along which Var is not
// redefined).
type DUArc struct {
	From, To int
	Var      string
}

// ProcResult is the analysis result for one procedure.
type ProcResult struct {
	Proc  string
	Graph *cfg.Graph

	// EnvUse[n] reports n ∈ N_Es: node n uses a value defined by the
	// environment.
	EnvUse []bool
	// NI[n] reports n ∈ N_I: n is reachable from N_Es by a (possibly
	// empty) sequence of define-use arcs.
	NI []bool
	// DerefEnvPointer records nodes that store through a pointer whose
	// value is environment-dependent; the transformation rejects these
	// (see DESIGN.md: environment inputs are scalar values).
	DerefEnvPointer []int

	// V_I(n), the variables used in n that are defined by E_S or label a
	// define-use arc into n from a node in N_I, is vars[vi[viOff[n]:
	// viOff[n+1]]]; vi and viOff are nil when every V_I is empty.
	vars      []string
	vi, viOff []int32
	ctx       *procContext // final once Analyze has returned
}

// vis is V_I(id) as variable ids.
func (r *ProcResult) vis(id int) []int32 {
	if r.viOff == nil {
		return nil
	}
	return r.vi[r.viOff[id]:r.viOff[id+1]]
}

// InVI reports whether name ∈ V_I(id).
func (r *ProcResult) InVI(id int, name string) bool {
	return slices.ContainsFunc(r.vis(id), func(v int32) bool { return r.vars[v] == name })
}

// VI returns V_I(id) as a new set.
func (r *ProcResult) VI(id int) VarSet {
	s := make(VarSet)
	for _, v := range r.vis(id) {
		s[r.vars[v]] = true
	}
	return s
}

// HasTaint reports whether any node of the procedure has a non-empty
// V_I set.
func (r *ProcResult) HasTaint() bool { return slices.Contains(r.NI, true) }

// String renders the per-node analysis for debugging.
func (r *ProcResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis of %s:\n", r.Proc)
	f := buildFacts(r.Graph, r.ctx.unit.Arrays[r.Proc]) // Analyze keeps no facts
	for _, n := range r.Graph.Nodes {
		mark := " "
		if r.EnvUse[n.ID] {
			mark = "E"
		} else if r.NI[n.ID] {
			mark = "I"
		}
		uses := make([]string, 0, len(f.uses(n.ID)))
		for _, v := range f.uses(n.ID) {
			uses = append(uses, f.vars[v])
		}
		sort.Strings(uses)
		fmt.Fprintf(&b, "  n%-3d [%s] uses=%v VI=%v\n", n.ID, mark, uses, r.VI(n.ID).Sorted())
	}
	return b.String()
}

// DefUse materialises the define-use graph Ğ_j. The transformation never
// needs it (N_I and V_I come straight from the taint pass); it exists
// for measurement, debugging and the tests that check the taint pass
// against the paper's definition. Each definition made by a node of G_j
// (not by the environment) is followed forward until it is strongly
// redefined, so the cost is the size of the regions the definitions
// reach — and Ğ_j itself is quadratic in G_j for branchy or loopy code.
func (r *ProcResult) DefUse() []DUArc {
	f, g := buildFacts(r.Graph, r.ctx.unit.Arrays[r.Proc]), r.Graph
	var arcs []DUArc
	seen := make([]int, len(g.Nodes)) // seen[n] == walk: n already visited by this walk
	var stack []*cfg.Node
	walk := 0
	for m := range f.nodes {
		if r.ctx.envObj(f.nodes[m].outObj) {
			continue
		}
		for _, d := range f.defs(m) {
			walk++
			stack = append(stack[:0], g.Nodes[m])
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, a := range n.Out {
					t := a.To.ID
					if seen[t] == walk {
						continue
					}
					seen[t] = walk
					killed := false
					for _, td := range f.defs(t) {
						killed = killed || td.strong && td.v == d.v
					}
					for _, u := range f.uses(t) {
						if u == d.v {
							arcs = append(arcs, DUArc{From: m, To: t, Var: f.vars[d.v]})
						}
					}
					if !killed {
						stack = append(stack, a.To)
					}
				}
			}
		}
	}
	return arcs
}
