package dataflow

import (
	"fmt"
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
	// VI[n] is V_I(n): the variables used in n that are defined by E_S
	// or labeling a define-use arc into n from a node in N_I. Nodes not
	// in N_I have an empty (nil) set.
	VI []VarSet
	// DerefEnvPointer records nodes that store through a pointer whose
	// value is environment-dependent; the transformation rejects these
	// (see DESIGN.md: environment inputs are scalar values).
	DerefEnvPointer []int

	facts *procFacts
	ctx   *procContext // final once Analyze has returned
}

// HasTaint reports whether any node of the procedure has a non-empty
// V_I set.
func (r *ProcResult) HasTaint() bool {
	for _, ni := range r.NI {
		if ni {
			return true
		}
	}
	return false
}

// String renders the per-node analysis for debugging.
func (r *ProcResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analysis of %s:\n", r.Proc)
	for _, n := range r.Graph.Nodes {
		mark := " "
		if r.EnvUse[n.ID] {
			mark = "E"
		} else if r.NI[n.ID] {
			mark = "I"
		}
		uses := make([]string, 0, len(r.facts.nodes[n.ID].uses))
		for _, v := range r.facts.nodes[n.ID].uses {
			uses = append(uses, r.facts.vars[v])
		}
		sort.Strings(uses)
		fmt.Fprintf(&b, "  n%-3d [%s] uses=%v VI=%v\n", n.ID, mark, uses, r.VI[n.ID].Sorted())
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
	f, g := r.facts, r.Graph
	var arcs []DUArc
	seen := make([]int, len(g.Nodes)) // seen[n] == walk: n already visited by this walk
	var stack []*cfg.Node
	walk := 0
	for m := range f.nodes {
		if r.ctx.envObj(f.nodes[m].outObj) {
			continue
		}
		for _, d := range f.nodes[m].defs {
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
					for _, td := range f.nodes[t].defs {
						killed = killed || td.strong && td.v == d.v
					}
					for _, u := range f.nodes[t].uses {
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
