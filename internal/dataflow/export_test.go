package dataflow

// Work is the analysis's deterministic cost counter: facts-building node
// visits + worklist pops + facts pushed along arcs.
func (r *Result) Work() int { return r.work }

// FactsBuilt is the number of procedures whose context-free facts were
// built.
func (r *Result) FactsBuilt() int { return r.factsBuilt }
