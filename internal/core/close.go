// Package core implements the paper's primary contribution: the
// algorithm of Figure 1 of "Automatically Closing Open Reactive
// Programs" (PLDI 1998), which transforms an open concurrent reactive
// program S into a closed nondeterministic program S' whose behaviors
// include every behavior of S composed with its most general
// environment E_S.
//
// For each procedure p_j the algorithm:
//
//	Step 2: computes V_I(n) for every control-flow node n — the
//	        variables used at n whose values may depend on the
//	        environment (package dataflow);
//	Step 3: marks the nodes to preserve — the start node, termination
//	        statements, calls to system procedures, and assignment or
//	        conditional statements not in N_I;
//	Step 4: rewires control flow between marked nodes: an arc whose
//	        unmarked region can reach several marked successors becomes
//	        a nondeterministic switch on VS_toss(k);
//	Step 5: removes procedure parameters defined by the environment and
//	        the corresponding call arguments.
//
// In addition (interface elimination), env-facing channels become data-
// free stubs — their operations survive as visible operations that never
// block, but no values cross them — and environment-dependent value
// arguments of visible operations are replaced by the distinguished
// undef literal.
package core

import (
	"fmt"
	"sort"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/dataflow"
	"reclose/internal/sem"
)

// Stats summarizes one closing transformation.
type Stats struct {
	Procs           int // procedures transformed
	NodesOriginal   int // CFG nodes before
	NodesClosed     int // CFG nodes after (including inserted toss nodes)
	NodesEliminated int // unmarked source nodes dropped
	EnvOpsStubbed   int // operations on env-facing channels retargeted to stubs
	TossInserted    int // VS_toss switch nodes inserted
	TossOutcomes    int // total outcomes over all inserted switches
	TossShared      int // arcs routed to an existing switch (ShareTossSwitches)
	ParamsRemoved   int // procedure parameters eliminated (Step 5)
	ArgsUndefed     int // visible-op arguments replaced by undef
	Divergences     int // invisible divergences eliminated (arc with empty succ set)
	// Static branching: the sum over nodes of (outdegree - 1), a measure
	// of the static degree of nondeterministic/conditional branching.
	BranchOriginal int
	BranchClosed   int
	// Control-path choices: for every arc out of a preserved node, the
	// number of simple control paths through the (possibly eliminated)
	// region to the next preserved nodes (original) versus the number of
	// VS_toss outcomes that replace them (closed). The §1 claim — "our
	// transformation preserves, or may even reduce, the static degree of
	// branching" — holds for this measure: each toss has one outcome per
	// reachable preserved node, and distinct reachable nodes have at
	// least one simple path each, so PathChoicesClosed <=
	// PathChoicesOriginal always.
	PathChoicesOriginal int
	PathChoicesClosed   int
	// AnalysisIterations is the number of interprocedural fixpoint
	// rounds performed by the dataflow analysis.
	AnalysisIterations int
}

// String renders the stats as a short report.
func (s *Stats) String() string {
	return fmt.Sprintf(
		"procs=%d nodes %d->%d (eliminated %d, env-ops %d, toss %d/%d outcomes) params-removed=%d args-undefed=%d divergences=%d branching %d->%d",
		s.Procs, s.NodesOriginal, s.NodesClosed, s.NodesEliminated, s.EnvOpsStubbed,
		s.TossInserted, s.TossOutcomes, s.ParamsRemoved, s.ArgsUndefed, s.Divergences,
		s.BranchOriginal, s.BranchClosed)
}

// Options configure the transformation.
type Options struct {
	// ShareTossSwitches merges VS_toss switches with identical outcome
	// targets within a procedure, implementing the remark at the end of
	// §5: "sequences of VS_toss that result in the same sequences of
	// marked nodes are redundant, and could thus be eliminated". Off by
	// default — the base algorithm of Figure 1 inserts one switch per
	// arc.
	ShareTossSwitches bool
}

// Close transforms the open unit u into a closed unit. It runs the
// whole-program dataflow analysis, applies the algorithm of Figure 1 to
// every procedure, and removes the environment interface. The input unit
// is not modified.
func Close(u *cfg.Unit) (*cfg.Unit, *Stats, error) {
	return CloseWithOptions(u, Options{})
}

// CloseWithOptions is Close with transformation options.
func CloseWithOptions(u *cfg.Unit, opt Options) (*cfg.Unit, *Stats, error) {
	res := dataflow.Analyze(u)
	if err := res.Err(); err != nil {
		return nil, nil, err
	}
	return closeAnalyzed(u, res, opt)
}

// CloseAnalyzed is Close for callers that already hold the analysis
// result (it must come from dataflow.Analyze on u).
func CloseAnalyzed(u *cfg.Unit, res *dataflow.Result) (*cfg.Unit, *Stats, error) {
	return closeAnalyzed(u, res, Options{})
}

func closeAnalyzed(u *cfg.Unit, res *dataflow.Result, opt Options) (*cfg.Unit, *Stats, error) {
	st := &Stats{AnalysisIterations: res.Iterations}

	// Step 5 bookkeeping is global: the set of removed parameter indices
	// per procedure is the effective env-parameter set of the analysis.
	removed := res.EnvParams

	closed := &cfg.Unit{
		Procs:     make(map[string]*cfg.Graph, len(u.Procs)),
		Order:     append([]string(nil), u.Order...),
		Processes: append([]string(nil), u.Processes...),
		EnvParams: make(map[string]map[int]bool),
		EnvChans:  make(map[string]bool),
		Arrays:    u.Arrays, // read-only (cfg.Unit)
	}
	// Env-facing channels become stubs: the data they carried is part of
	// the eliminated interface, but the visible operations on them are
	// procedure calls and are preserved (the sends in Figures 2 and 3
	// survive the transformation). A stubbed channel never blocks; sends
	// discard their (possibly undef) value and recvs yield undef.
	for _, o := range u.Objects {
		if u.EnvChans[o.Name] {
			o.EnvFacing = true
		}
		closed.Objects = append(closed.Objects, o)
	}

	rg := &regions{}
	for _, name := range u.Order {
		g := u.Procs[name]
		pr := res.Proc(name)
		cg, err := closeProc(g, pr, u, removed, st, opt, rg)
		if err != nil {
			return nil, nil, err
		}
		closed.Procs[name] = cg
	}

	st.Procs = len(u.Order)
	no, _ := u.Size()
	nc, _ := closed.Size()
	st.NodesOriginal = no
	st.NodesClosed = nc
	st.BranchOriginal = branching(u)
	st.BranchClosed = branching(closed)

	if err := closed.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: closed unit fails validation: %w", err)
	}
	return closed, st, nil
}

// branching sums max(outdegree-1, 0) over all nodes of all procedures.
func branching(u *cfg.Unit) int {
	total := 0
	for _, name := range u.Order {
		for _, n := range u.Procs[name].Nodes {
			if d := len(n.Out) - 1; d > 0 {
				total += d
			}
		}
	}
	return total
}

// envFacingCall reports whether the call node operates on an env-facing
// channel (part of the interface to eliminate).
func envFacingCall(cs *ast.CallStmt, u *cfg.Unit) bool {
	b, ok := sem.Builtins[cs.Name.Name]
	if !ok || !b.HasObj || len(cs.Args) == 0 {
		return false
	}
	id, ok := cs.Args[0].(*ast.Ident)
	return ok && u.EnvChans[id.Name]
}

// closeProc applies Steps 3–5 of Figure 1 to one procedure.
func closeProc(g *cfg.Graph, pr *dataflow.ProcResult, u *cfg.Unit,
	removed map[string]map[int]bool, st *Stats, opt Options, rg *regions) (*cfg.Graph, error) {

	// --- Step 3: mark the nodes to preserve. ---
	marked := make([]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		switch n.Kind {
		case cfg.NStart, cfg.NReturn, cfg.NExit:
			marked[n.ID] = true
		case cfg.NCall:
			// All procedure calls are marked (Step 3), including visible
			// operations on env-facing channels — those survive as
			// operations on the channel stub. Their data arguments are
			// handled by transformCall.
			if envFacingCall(n.CallStmt(), u) {
				st.EnvOpsStubbed++
			}
			marked[n.ID] = true
		case cfg.NAssign, cfg.NCond, cfg.NTossSwitch:
			if !pr.NI[n.ID] {
				marked[n.ID] = true
			}
		}
	}

	// --- Step 4: generate G'. ---
	cg := &cfg.Graph{ProcName: g.ProcName}
	for i, p := range g.Params {
		if removed[g.ProcName][i] {
			st.ParamsRemoved++
			continue
		}
		cg.Params = append(cg.Params, p)
	}

	// Create the preserved nodes first so arcs can target them.
	tossMemo := make(map[string]*cfg.Node)
	newNode := make([]*cfg.Node, len(g.Nodes))
	for _, n := range g.Nodes {
		if !marked[n.ID] {
			st.NodesEliminated++
			continue
		}
		nn := cg.NewNode(n.Kind, n.Pos)
		nn.Cond = n.Cond
		nn.Stmt = n.Stmt
		if n.Kind == cfg.NCall {
			nn.Stmt = transformCall(n, pr, u, removed, st)
		}
		newNode[n.ID] = nn
		if n == g.Entry {
			cg.Entry = nn
		}
	}

	rg.use(marked)
	for _, n := range g.Nodes {
		if !marked[n.ID] {
			continue
		}
		nn := newNode[n.ID]
		for _, a := range n.Out {
			succ := rg.succSet(a.To)
			st.PathChoicesOriginal += rg.paths(a.To)
			if len(succ) > 0 {
				st.PathChoicesClosed += len(succ)
			}
			switch len(succ) {
			case 0:
				// All paths from this arc stay in unmarked nodes forever:
				// an invisible divergence, not preserved (per the remark
				// after the algorithm in §4).
				st.Divergences++
			case 1:
				cg.Connect(nn, newNode[succ[0]], a.Label)
			default:
				var key string
				if opt.ShareTossSwitches {
					key = fmt.Sprint(succ)
					if t, ok := tossMemo[key]; ok {
						st.TossShared++
						cg.Connect(nn, t, a.Label)
						break
					}
				}
				t := cg.NewNode(cfg.NTossSwitch, n.Pos)
				st.TossInserted++
				st.TossOutcomes += len(succ)
				cg.Connect(nn, t, a.Label)
				for i, id := range succ {
					cg.Connect(t, newNode[id], cfg.Label{Kind: cfg.LToss, K: int32(i)})
				}
				if opt.ShareTossSwitches {
					tossMemo[key] = t
				}
			}
		}
		// A preserved non-terminal node all of whose arcs diverged
		// invisibly has nowhere to go: the process can make no further
		// visible progress. Represent that as an exit (the process
		// blocks), preserving the absence of visible behavior.
		if len(nn.Out) == 0 && nn.Kind != cfg.NReturn && nn.Kind != cfg.NExit {
			ex := cg.NewNode(cfg.NExit, n.Pos)
			if nn.Kind == cfg.NCond {
				cg.Connect(nn, ex, cfg.Label{Kind: cfg.LTrue})
				cg.Connect(nn, ex, cfg.Label{Kind: cfg.LFalse})
			} else {
				cg.Connect(nn, ex, cfg.Label{Kind: cfg.LAlways})
			}
		} else if nn.Kind == cfg.NCond && len(nn.Out) == 1 {
			// One branch of a preserved conditional diverged invisibly;
			// route the missing label to a blocking exit.
			ex := cg.NewNode(cfg.NExit, n.Pos)
			missing := cfg.Label{Kind: cfg.LTrue}
			if nn.Out[0].Label.Kind == cfg.LTrue {
				missing = cfg.Label{Kind: cfg.LFalse}
			}
			cg.Connect(nn, ex, missing)
		}
	}

	if cg.Entry == nil {
		return nil, fmt.Errorf("core: proc %s lost its start node", g.ProcName)
	}
	return cg, nil
}

// regions walks the unmarked regions between marked nodes for Step 4,
// on stamp arrays and buffers that every arc of every procedure reuses.
type regions struct {
	marked  []bool
	seen    []int32 // seen[n] == walk: the current succSet walk reached n
	walk    int32
	onStack []bool // the current paths walk is inside n
	stack   []*cfg.Node
	succ    []int
}

// use points the walks at one procedure's marks. Stamps left by another
// procedure are harmless: walk only grows.
func (r *regions) use(marked []bool) {
	r.marked = marked
	if len(r.seen) < len(marked) {
		r.seen, r.onStack = make([]int32, len(marked)), make([]bool, len(marked))
	}
}

// paths counts the simple control paths from n through unmarked nodes
// to preserved (marked) nodes — for an arc into n, the original "static
// degree of branching" the toss outcomes replace. Cyclic continuations
// are cut (they diverge invisibly and are dropped by the
// transformation). The count is capped to avoid pathological blowup.
func (r *regions) paths(n *cfg.Node) int {
	const pathCap = 1 << 16
	if r.marked[n.ID] {
		return 1
	}
	if r.onStack[n.ID] {
		return 0 // invisible cycle: dropped
	}
	r.onStack[n.ID] = true
	total := 0
	for _, out := range n.Out {
		total += r.paths(out.To)
		if total >= pathCap {
			total = pathCap
			break
		}
	}
	r.onStack[n.ID] = false
	return total
}

// succSet computes succ(a) for an arc a into to: the marked nodes
// reachable from to through unmarked nodes exclusively, in ascending
// node-ID order (Point 2 of Step 4). The slice is valid until the next
// call.
func (r *regions) succSet(to *cfg.Node) []int {
	r.succ = r.succ[:0]
	if r.marked[to.ID] {
		return append(r.succ, to.ID)
	}
	r.walk++
	r.seen[to.ID] = r.walk
	r.stack = append(r.stack[:0], to)
	for len(r.stack) > 0 {
		n := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if r.marked[n.ID] {
			r.succ = append(r.succ, n.ID)
			continue
		}
		for _, arc := range n.Out {
			if r.seen[arc.To.ID] != r.walk {
				r.seen[arc.To.ID] = r.walk
				r.stack = append(r.stack, arc.To)
			}
		}
	}
	sort.Ints(r.succ)
	return r.succ
}

// transformCall applies Step 5 (and interface elimination of data
// values) to a preserved call node: arguments whose parameter was
// removed disappear; environment-dependent value arguments of builtins
// are replaced by undef.
func transformCall(n *cfg.Node, pr *dataflow.ProcResult, u *cfg.Unit,
	removed map[string]map[int]bool, st *Stats) *ast.CallStmt {

	cs := n.CallStmt()
	out := &ast.CallStmt{Name: cs.Name, Progress: cs.Progress}

	if b, ok := sem.Builtins[cs.Name.Name]; ok {
		for i, a := range cs.Args {
			if b.HasObj && i == 0 {
				out.Args = append(out.Args, a)
				continue
			}
			if i == b.OutArg {
				out.Args = append(out.Args, a)
				continue
			}
			if id, isID := a.(*ast.Ident); isID && pr.InVI(n.ID, id.Name) {
				st.ArgsUndefed++
				out.Args = append(out.Args, &ast.UndefLit{ValuePos: a.Pos()})
				continue
			}
			out.Args = append(out.Args, a)
		}
		return out
	}

	callee := cs.Name.Name
	for i, a := range cs.Args {
		if removed[callee][i] {
			continue
		}
		if id, isID := a.(*ast.Ident); isID && pr.InVI(n.ID, id.Name) {
			// The argument is env-dependent but its parameter survived:
			// this cannot happen after the interprocedural fixpoint, but
			// guard with undef for robustness.
			st.ArgsUndefed++
			out.Args = append(out.Args, &ast.UndefLit{ValuePos: a.Pos()})
			continue
		}
		out.Args = append(out.Args, a)
	}
	return out
}

// VerifyClosed re-analyzes a closed unit and checks the property of
// Lemma 5: every node of every procedure has an empty V_I set (the unit
// is genuinely closed). It returns the first violation, or nil.
func VerifyClosed(u *cfg.Unit) error {
	if u.IsOpen() {
		return fmt.Errorf("core: unit still declares an environment interface")
	}
	res := dataflow.Analyze(u)
	for _, name := range u.Order {
		pr := res.Proc(name)
		for _, n := range pr.Graph.Nodes {
			if vi := pr.VI(n.ID); len(vi) > 0 {
				return fmt.Errorf("core: proc %s node n%d has non-empty V_I %v (Lemma 5 violated)",
					name, n.ID, vi.Sorted())
			}
		}
	}
	return nil
}
