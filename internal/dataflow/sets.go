// Package dataflow implements the static analyses the closing algorithm
// of Figure 1 consumes: a may-alias (points-to) analysis, per-node
// use/def facts built once per procedure, the computation of N_I and the
// environment-dependent sets V_I(n) (Step 2 of the algorithm) as a sparse
// forward taint pass, the interprocedural fixpoint that propagates
// environment inputs across procedure boundaries, the define-use graph
// Ğ_j of a procedure on demand, and backward liveness.
package dataflow

import "sort"

// VarSet is a set of variable names.
type VarSet map[string]bool

// NewVarSet returns a set containing the given names.
func NewVarSet(names ...string) VarSet {
	s := make(VarSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Add inserts name and reports whether it was new.
func (s VarSet) Add(name string) bool {
	if s[name] {
		return false
	}
	s[name] = true
	return true
}

// AddAll inserts every member of t and reports whether any was new.
func (s VarSet) AddAll(t VarSet) bool {
	changed := false
	for n := range t {
		if s.Add(n) {
			changed = true
		}
	}
	return changed
}

// Has reports membership.
func (s VarSet) Has(name string) bool { return s[name] }

// Clone returns an independent copy.
func (s VarSet) Clone() VarSet {
	c := make(VarSet, len(s))
	for n := range s {
		c[n] = true
	}
	return c
}

// Sorted returns the members in ascending order.
func (s VarSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
