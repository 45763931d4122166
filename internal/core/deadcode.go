package core

import (
	"reclose/internal/cfg"
	"reclose/internal/dataflow"
)

// EliminateDead removes assignments whose value is never used — the
// residue the closing transformation leaves behind when it eliminates
// every *use* of a variable but a clean *definition* of it survives
// (compare the paper's §7 discussion of slicing: closing is not a slice,
// so dead definitions can remain). The pass runs a backward liveness
// analysis per procedure and moves every arc past the dead assignment
// nodes it enters, iterating until no assignment is dead. It returns the
// number of nodes removed.
//
// The unit is modified in place. Visible operations, conditionals, toss
// switches, and assignments whose right-hand side contains VS_toss are
// never removed, so the visible behavior is unchanged (tested by
// trace-set equality).
func EliminateDead(u *cfg.Unit) int {
	removed := 0
	for _, name := range u.Order {
		removed += eliminateDeadProc(u.Procs[name], u.Arrays[name])
	}
	return removed
}

func eliminateDeadProc(g *cfg.Graph, arrays map[string]bool) int {
	removed := 0
	for {
		lv := dataflow.AnalyzeLiveness(g, arrays)
		ids := lv.DeadAssignments(arrays)
		if len(ids) == 0 {
			return removed
		}
		dead := make([]bool, len(g.Nodes))
		for _, id := range ids {
			dead[id] = true
		}
		// One forward pass moves every arc past the dead nodes it enters.
		for _, n := range g.Nodes {
			for i := range n.Out {
				to, ok := pastDead(n.Out[i].To, dead, len(g.Nodes))
				if !ok {
					// A cycle of dead assignments, which no graph with a
					// test in every loop has. The arcs moved so far skip
					// only dead nodes, and those all stay in the graph.
					return removed
				}
				n.Out[i].To = to
			}
		}
		// Drop the dead nodes and renumber the rest.
		nodes := g.Nodes[:0]
		for _, n := range g.Nodes {
			if dead[n.ID] {
				removed++
				continue
			}
			n.ID = len(nodes)
			nodes = append(nodes, n)
		}
		clear(g.Nodes[len(nodes):])
		g.Nodes = nodes
	}
}

// pastDead returns the first live node on the chain of single successors
// that starts at n, and points every dead node on the chain straight at
// it, so no chain is walked twice. It reports false if no live node is
// within limit steps: the chain is a cycle of dead nodes.
func pastDead(n *cfg.Node, dead []bool, limit int) (*cfg.Node, bool) {
	to := n
	for steps := 0; dead[to.ID]; steps++ {
		if steps == limit {
			return nil, false
		}
		to = to.Out[0].To
	}
	for n != to {
		next := n.Out[0].To
		n.Out[0].To = to
		n = next
	}
	return to, true
}
