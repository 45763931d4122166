package cfg

import (
	"fmt"
	"strings"
)

// Dot renders the procedure graph in Graphviz DOT syntax. Node shapes
// follow the statement classes: box for assignments, diamond for
// conditionals and toss switches, ellipse for calls, doublecircle for
// terminators.
func (g *Graph) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", g.ProcName)
	fmt.Fprintf(&b, "  label=%q;\n  labelloc=t;\n  node [fontsize=10];\n",
		fmt.Sprintf("proc %s(%s)", g.ProcName, strings.Join(g.Params, ", ")))
	for _, n := range g.Nodes {
		shape := "box"
		switch n.Kind {
		case NStart:
			shape = "circle"
		case NCond, NTossSwitch:
			shape = "diamond"
		case NCall:
			shape = "ellipse"
		case NReturn, NExit:
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  n%d [shape=%s,label=%q];\n", n.ID, shape,
			fmt.Sprintf("n%d: %s", n.ID, g.nodeText(n)))
	}
	for _, n := range g.Nodes {
		for _, a := range n.Out {
			label := ""
			if a.Label.Kind != LAlways {
				label = a.Label.String()
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", n.ID, a.To.ID, label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Dot renders every procedure of the unit as a separate digraph,
// concatenated (split on blank lines for individual rendering).
func (u *Unit) Dot() string {
	var b strings.Builder
	for i, name := range u.Order {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(u.Procs[name].Dot())
	}
	return b.String()
}
