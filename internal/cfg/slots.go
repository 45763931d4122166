package cfg

import (
	"sort"

	"reclose/internal/ast"
	"reclose/internal/sem"
)

// SlotTable assigns every variable of one procedure a dense slot index,
// computed once per graph so an interpreter can replace per-access
// map[string] lookups with array indexing. Slots 0..len(Params)-1 are
// the procedure's parameters in declaration order; the remaining slots
// are the other variables in order of first appearance (walking nodes
// by ID and each node's expressions in syntax order). Both orders are
// functions of the graph alone, so every System resolved over the same
// graph agrees on the numbering.
type SlotTable struct {
	// Names maps slot -> variable name.
	Names []string
	// Slots maps variable name -> slot.
	Slots map[string]int
	// Sorted lists the slots in name-sorted order: the canonical
	// iteration order for state fingerprints, fixed at build time so
	// fingerprinting never re-sorts names per state.
	Sorted []int
}

// Slot returns the slot of name, or -1 if the procedure never mentions
// it.
func (t *SlotTable) Slot(name string) int {
	if s, ok := t.Slots[name]; ok {
		return s
	}
	return -1
}

// BuildSlotTable collects the variables of g into a fresh slot table.
// The first argument of a builtin call names a communication object,
// not a variable, and is excluded; every other identifier position is a
// variable (MiniC auto-creates variables on first use, so mention is
// declaration).
func BuildSlotTable(g *Graph) *SlotTable {
	t := &SlotTable{Slots: make(map[string]int)}
	add := func(name string) {
		if _, ok := t.Slots[name]; !ok {
			t.Slots[name] = len(t.Names)
			t.Names = append(t.Names, name)
		}
	}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := e.(type) {
		case nil:
		case *ast.Ident:
			add(e.Name)
		case *ast.IndexExpr:
			add(e.X.Name)
			walk(e.Index)
		case *ast.UnaryExpr:
			walk(e.X)
		case *ast.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *ast.TossExpr:
			walk(e.Bound)
		}
	}

	for _, p := range g.Params {
		add(p)
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case NAssign:
			switch st := n.Stmt.(type) {
			case *ast.VarStmt:
				add(st.Name.Name)
				walk(st.Size)
				walk(st.Init)
			case *ast.AssignStmt:
				walk(st.LHS)
				walk(st.RHS)
			}
		case NCond:
			walk(n.Cond)
		case NCall:
			cs := n.CallStmt()
			if cs == nil {
				break
			}
			args := cs.Args
			if b, ok := sem.Builtins[cs.Name.Name]; ok && b.HasObj && len(args) > 0 {
				args = args[1:]
			}
			for _, a := range args {
				walk(a)
			}
		}
	}

	t.Sorted = make([]int, len(t.Names))
	for i := range t.Sorted {
		t.Sorted[i] = i
	}
	sort.Slice(t.Sorted, func(i, j int) bool {
		return t.Names[t.Sorted[i]] < t.Names[t.Sorted[j]]
	})
	return t
}
