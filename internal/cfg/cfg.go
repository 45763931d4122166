// Package cfg builds and represents control-flow graphs of MiniC
// procedures, and bundles the per-procedure graphs of a program into a
// compiled Unit that the analyses, the closing transformation, and the
// interpreter all share.
//
// Following §4 of the paper, the nodes of a control-flow graph are the
// statements of the procedure (plus a distinguished start node), and each
// arc (n, n') is labeled with a boolean expression specifying when n' is
// executed after n. For every node, the labels of its outgoing arcs are
// mutually exclusive and their disjunction is a tautology.
package cfg

import (
	"fmt"
	"sort"
	"strings"

	"reclose/internal/ast"
	"reclose/internal/sem"
	"reclose/internal/token"
)

// NodeKind classifies CFG nodes.
type NodeKind uint8

// Node kinds. NTossSwitch nodes are introduced only by the closing
// transformation (Step 4 of Figure 1); source programs never contain
// them.
const (
	NStart NodeKind = iota
	NAssign
	NCond
	NCall
	NReturn
	NExit
	NTossSwitch
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case NStart:
		return "start"
	case NAssign:
		return "assign"
	case NCond:
		return "cond"
	case NCall:
		return "call"
	case NReturn:
		return "return"
	case NExit:
		return "exit"
	case NTossSwitch:
		return "toss"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// LabelKind classifies arc labels.
type LabelKind uint8

// Arc label kinds.
const (
	LAlways LabelKind = iota // unconditional successor
	LTrue                    // condition evaluated to true
	LFalse                   // condition evaluated to false
	LToss                    // VS_toss result equals K
)

// Label is the boolean expression labeling an arc, in the restricted
// forms the construction produces. It packs into 8 bytes.
type Label struct {
	Kind LabelKind
	K    int32 // toss outcome for LToss
}

// String renders the label.
func (l Label) String() string {
	switch l.Kind {
	case LAlways:
		return "always"
	case LTrue:
		return "true"
	case LFalse:
		return "false"
	case LToss:
		return fmt.Sprintf("toss==%d", l.K)
	}
	return "?"
}

// Arc is a control-flow arc out of the node whose Out list holds it: a
// 16-byte value, stored inline in that list.
type Arc struct {
	To    *Node
	Label Label
}

// Node is one statement of a procedure (or the start node, or an
// inserted VS_toss switch). The fields are ordered so a Node is 80
// bytes. Nodes keep no predecessor lists: every pass that needs
// predecessors walks the Out lists.
type Node struct {
	ID   int
	Kind NodeKind
	Pos  token.Pos

	// Stmt is the underlying statement for NAssign (a *ast.VarStmt or
	// *ast.AssignStmt) and NCall (a *ast.CallStmt).
	Stmt ast.Stmt
	// Cond is the test expression for NCond.
	Cond ast.Expr

	Out []Arc
}

// TossBound is n in VS_toss(n) for an NTossSwitch node, whose outgoing
// arcs are labeled toss==0 .. toss==n (Validate checks this).
func (n *Node) TossBound() int { return len(n.Out) - 1 }

// Succ returns the target of the unique LAlways arc, or nil.
func (n *Node) Succ() *Node {
	if len(n.Out) == 1 && n.Out[0].Label.Kind == LAlways {
		return n.Out[0].To
	}
	return nil
}

// CallStmt returns the node's call statement, or nil if the node is not
// a call.
func (n *Node) CallStmt() *ast.CallStmt {
	cs, _ := n.Stmt.(*ast.CallStmt)
	return cs
}

// Graph is the control-flow graph of one procedure.
type Graph struct {
	ProcName string
	Params   []string
	Nodes    []*Node
	Entry    *Node // the start node
}

// NewNode appends a fresh node of the given kind to the graph.
func (g *Graph) NewNode(kind NodeKind, pos token.Pos) *Node {
	n := &Node{ID: len(g.Nodes), Kind: kind, Pos: pos}
	g.Nodes = append(g.Nodes, n)
	return n
}

// Connect adds an arc from → to with the given label.
func (g *Graph) Connect(from, to *Node, label Label) {
	from.Out = append(from.Out, Arc{To: to, Label: label})
}

// Size returns the number of nodes and arcs.
func (g *Graph) Size() (nodes, arcs int) {
	nodes = len(g.Nodes)
	for _, n := range g.Nodes {
		arcs += len(n.Out)
	}
	return nodes, arcs
}

// String renders the graph as a readable listing, one node per line.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc %s(%s):\n", g.ProcName, strings.Join(g.Params, ", "))
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "  n%-3d %-7s %-40s", n.ID, n.Kind, g.nodeText(n))
		var succs []string
		for _, a := range n.Out {
			succs = append(succs, fmt.Sprintf("%s->n%d", a.Label, a.To.ID))
		}
		b.WriteString(strings.Join(succs, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

func (g *Graph) nodeText(n *Node) string {
	switch n.Kind {
	case NStart:
		return "<start>"
	case NAssign:
		switch s := n.Stmt.(type) {
		case *ast.AssignStmt:
			return fmt.Sprintf("%s = %s", ast.FormatExpr(s.LHS), ast.FormatExpr(s.RHS))
		case *ast.VarStmt:
			if s.Size != nil {
				return fmt.Sprintf("var %s[%s]", s.Name.Name, ast.FormatExpr(s.Size))
			}
			if s.Init != nil {
				return fmt.Sprintf("var %s = %s", s.Name.Name, ast.FormatExpr(s.Init))
			}
			return fmt.Sprintf("var %s", s.Name.Name)
		}
	case NCond:
		return fmt.Sprintf("if %s", ast.FormatExpr(n.Cond))
	case NCall:
		cs := n.CallStmt()
		args := make([]string, len(cs.Args))
		for i, a := range cs.Args {
			args[i] = ast.FormatExpr(a)
		}
		return fmt.Sprintf("%s(%s)", cs.Name.Name, strings.Join(args, ", "))
	case NReturn:
		return "return"
	case NExit:
		return "exit"
	case NTossSwitch:
		return fmt.Sprintf("switch VS_toss(%d)", n.TossBound())
	}
	return "?"
}

// Validate checks structural invariants of the graph: the entry is a
// start node; every non-terminal node has outgoing arcs with consistent
// labels (a toss node's outcomes are exactly 0..len(Out)-1); arc targets
// belong to the graph. It returns the first violation found, or nil.
func (g *Graph) Validate() error {
	if g.Entry == nil || g.Entry.Kind != NStart {
		return fmt.Errorf("proc %s: entry is not a start node", g.ProcName)
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("proc %s: node %d has ID %d", g.ProcName, i, n.ID)
		}
	}
	var seen []bool // a toss node's outcomes
	for _, n := range g.Nodes {
		for _, a := range n.Out {
			if id := a.To.ID; id < 0 || id >= len(g.Nodes) || g.Nodes[id] != a.To {
				return fmt.Errorf("proc %s: n%d has arc to foreign node", g.ProcName, n.ID)
			}
		}
		switch n.Kind {
		case NStart, NAssign, NCall:
			if len(n.Out) != 1 || n.Out[0].Label.Kind != LAlways {
				return fmt.Errorf("proc %s: n%d (%s) must have exactly one unconditional successor, has %d arc(s)",
					g.ProcName, n.ID, n.Kind, len(n.Out))
			}
		case NCond:
			if len(n.Out) != 2 {
				return fmt.Errorf("proc %s: n%d (cond) must have 2 successors, has %d", g.ProcName, n.ID, len(n.Out))
			}
			k0, k1 := n.Out[0].Label.Kind, n.Out[1].Label.Kind
			if !(k0 == LTrue && k1 == LFalse || k0 == LFalse && k1 == LTrue) {
				return fmt.Errorf("proc %s: n%d (cond) must have one true and one false arc", g.ProcName, n.ID)
			}
		case NTossSwitch:
			if len(n.Out) == 0 {
				return fmt.Errorf("proc %s: n%d (toss) must have at least one successor", g.ProcName, n.ID)
			}
			if cap(seen) < len(n.Out) {
				seen = make([]bool, len(n.Out))
			}
			seen = seen[:len(n.Out)]
			clear(seen)
			for _, a := range n.Out {
				if a.Label.Kind != LToss {
					return fmt.Errorf("proc %s: n%d (toss) has non-toss arc label %s", g.ProcName, n.ID, a.Label)
				}
				if k := a.Label.K; k < 0 || int(k) >= len(n.Out) {
					return fmt.Errorf("proc %s: n%d (toss %d) has outcome %d", g.ProcName, n.ID, n.TossBound(), k)
				}
				if seen[a.Label.K] {
					return fmt.Errorf("proc %s: n%d (toss) has duplicate outcome %d", g.ProcName, n.ID, a.Label.K)
				}
				seen[a.Label.K] = true
			}
		case NReturn, NExit:
			if len(n.Out) != 0 {
				return fmt.Errorf("proc %s: n%d (%s) must have no successors", g.ProcName, n.ID, n.Kind)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Construction from AST

// Build constructs the control-flow graph of a procedure. The procedure
// must be in normalized form (see package normalize); arbitrary
// statements are accepted, but the analyses assume normalized call
// arguments.
func Build(pd *ast.ProcDecl) *Graph {
	g := &Graph{ProcName: pd.Name.Name}
	for _, p := range pd.Params {
		g.Params = append(g.Params, p.Name)
	}
	b := &builder{g: g}
	g.Entry = g.NewNode(NStart, pd.Pos())
	out := b.block(pd.Body, frontier{{g.Entry, Label{Kind: LAlways}}})
	if len(out) > 0 {
		// Implicit return at the end of the procedure body.
		ret := g.NewNode(NReturn, pd.Pos())
		b.connect(out, ret)
	}
	return g
}

type pending struct {
	from  *Node
	label Label
}

type frontier []pending

// breakable is one enclosing loop or switch on the builder's stack:
// break statements park their frontier here, and continue statements
// jump to contTarget (loops only).
type breakable struct {
	isLoop     bool
	contTarget *Node // loop condition or for-post node; nil for switches
	breaks     frontier
}

type builder struct {
	g     *Graph
	stack []*breakable
}

// innermost returns the innermost breakable (loopOnly selects loops), or
// nil. The semantic checker guarantees one exists for well-formed
// programs.
func (b *builder) innermost(loopOnly bool) *breakable {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if !loopOnly || b.stack[i].isLoop {
			return b.stack[i]
		}
	}
	return nil
}

func (b *builder) connect(in frontier, to *Node) {
	for _, p := range in {
		b.g.Connect(p.from, to, p.label)
	}
}

func (b *builder) block(blk *ast.BlockStmt, in frontier) frontier {
	for _, st := range blk.Stmts {
		if len(in) == 0 {
			// Unreachable code after return/exit: build it anyway so its
			// nodes exist (the closing algorithm tolerates them), but
			// leave it disconnected.
			in = nil
		}
		in = b.stmt(st, in)
	}
	return in
}

func (b *builder) stmt(st ast.Stmt, in frontier) frontier {
	switch st := st.(type) {
	case *ast.VarStmt, *ast.AssignStmt:
		n := b.g.NewNode(NAssign, st.Pos())
		n.Stmt = st
		b.connect(in, n)
		return frontier{{n, Label{Kind: LAlways}}}
	case *ast.CallStmt:
		n := b.g.NewNode(NCall, st.Pos())
		n.Stmt = st
		b.connect(in, n)
		return frontier{{n, Label{Kind: LAlways}}}
	case *ast.ReturnStmt:
		n := b.g.NewNode(NReturn, st.Pos())
		b.connect(in, n)
		return nil
	case *ast.ExitStmt:
		n := b.g.NewNode(NExit, st.Pos())
		b.connect(in, n)
		return nil
	case *ast.IfStmt:
		c := b.g.NewNode(NCond, st.Pos())
		c.Cond = st.Cond
		b.connect(in, c)
		thenOut := b.block(st.Then, frontier{{c, Label{Kind: LTrue}}})
		var elseOut frontier
		if st.Else != nil {
			elseOut = b.block(st.Else, frontier{{c, Label{Kind: LFalse}}})
		} else {
			elseOut = frontier{{c, Label{Kind: LFalse}}}
		}
		return append(thenOut, elseOut...)
	case *ast.WhileStmt:
		c := b.g.NewNode(NCond, st.Pos())
		c.Cond = st.Cond
		b.connect(in, c)
		ctx := &breakable{isLoop: true, contTarget: c}
		b.stack = append(b.stack, ctx)
		bodyOut := b.block(st.Body, frontier{{c, Label{Kind: LTrue}}})
		b.stack = b.stack[:len(b.stack)-1]
		b.connect(bodyOut, c)
		return append(frontier{{c, Label{Kind: LFalse}}}, ctx.breaks...)
	case *ast.ForStmt:
		if st.Init != nil {
			n := b.g.NewNode(NAssign, st.Init.Pos())
			n.Stmt = st.Init
			b.connect(in, n)
			in = frontier{{n, Label{Kind: LAlways}}}
		}
		cond := st.Cond
		if cond == nil {
			cond = &ast.BoolLit{ValuePos: st.Pos(), Value: true}
		}
		c := b.g.NewNode(NCond, st.Pos())
		c.Cond = cond
		b.connect(in, c)
		// Continue jumps to the post assignment when there is one (C
		// semantics), so create it before the body.
		contTarget := c
		var post *Node
		if st.Post != nil {
			post = b.g.NewNode(NAssign, st.Post.Pos())
			post.Stmt = st.Post
			b.g.Connect(post, c, Label{Kind: LAlways})
			contTarget = post
		}
		ctx := &breakable{isLoop: true, contTarget: contTarget}
		b.stack = append(b.stack, ctx)
		bodyOut := b.block(st.Body, frontier{{c, Label{Kind: LTrue}}})
		b.stack = b.stack[:len(b.stack)-1]
		b.connect(bodyOut, contTarget)
		return append(frontier{{c, Label{Kind: LFalse}}}, ctx.breaks...)
	case *ast.SwitchStmt:
		return b.switchStmt(st, in)
	case *ast.BreakStmt:
		if ctx := b.innermost(false); ctx != nil {
			ctx.breaks = append(ctx.breaks, in...)
		}
		return nil
	case *ast.ContinueStmt:
		if ctx := b.innermost(true); ctx != nil {
			b.connect(in, ctx.contTarget)
		}
		return nil
	case *ast.BlockStmt:
		return b.block(st, in)
	}
	return in
}

// switchStmt desugars a switch into a chain of conditionals on the tag
// (normalized to a single-evaluation expression): each valued case
// becomes one condition tag==v1 || tag==v2 ...; the default clause (or
// the fall-out when there is none) takes the final false arc. Cases do
// not fall through; break inside a case exits the switch.
func (b *builder) switchStmt(st *ast.SwitchStmt, in frontier) frontier {
	ctx := &breakable{isLoop: false}
	b.stack = append(b.stack, ctx)

	var defaultClause *ast.CaseClause
	var exits frontier
	cur := in
	for _, cl := range st.Cases {
		if len(cl.Values) == 0 {
			defaultClause = cl
			continue
		}
		var cond ast.Expr
		for _, v := range cl.Values {
			eq := &ast.BinaryExpr{X: st.Tag, OpPos: cl.CasePos, Op: token.EQL, Y: v}
			if cond == nil {
				cond = eq
			} else {
				cond = &ast.BinaryExpr{X: cond, OpPos: cl.CasePos, Op: token.LOR, Y: eq}
			}
		}
		c := b.g.NewNode(NCond, cl.Pos())
		c.Cond = cond
		b.connect(cur, c)
		bodyOut := b.block(cl.Body, frontier{{c, Label{Kind: LTrue}}})
		exits = append(exits, bodyOut...)
		cur = frontier{{c, Label{Kind: LFalse}}}
	}
	if defaultClause != nil {
		bodyOut := b.block(defaultClause.Body, cur)
		exits = append(exits, bodyOut...)
	} else {
		exits = append(exits, cur...)
	}

	b.stack = b.stack[:len(b.stack)-1]
	return append(exits, ctx.breaks...)
}

// ---------------------------------------------------------------------------
// Compiled units

// ObjectSpec describes one communication object of a unit.
type ObjectSpec struct {
	Name string
	Kind ast.ObjectKind
	Arg  int64 // capacity / initial count / initial value
	// EnvFacing marks a channel stub left behind by the closing
	// transformation in place of an env-facing channel: operations on it
	// are always enabled, sends discard their value, and recvs yield the
	// undefined value. Source programs never set this; it is part of the
	// eliminated interface.
	EnvFacing bool
}

// Unit is a compiled MiniC program: one control-flow graph per
// procedure, the communication objects, the process instantiations, and
// the environment interface. A Unit with an empty environment interface
// (no EnvParams entries and no EnvChans) is closed, i.e. self-executable.
type Unit struct {
	Procs     map[string]*Graph
	Order     []string // procedure names in declaration order
	Objects   []ObjectSpec
	Processes []string // top-level procedure name per process instance
	// EnvParams maps procedure name -> set of parameter indices provided
	// by the environment (the declared interface; interprocedural
	// propagation in the analyses may enlarge the effective set).
	EnvParams map[string]map[int]bool
	// EnvChans is the set of env-facing channel names.
	EnvChans map[string]bool
	// Arrays maps procedure name -> set of array variable names. It is
	// read-only: CompileUnit takes sem.Info's map and a closed unit
	// shares its open unit's, so nothing may write it. EnvParams, which
	// partitioning rewrites, is each unit's own copy.
	Arrays map[string]map[string]bool
	// Daemons marks process indices that model the environment (added
	// by the naive most-general-environment composition, package mgenv).
	// A daemon that blocks forever does not constitute a deadlock, and a
	// system whose non-daemon processes are all done counts as
	// terminated.
	Daemons map[int]bool
}

// Graph returns the CFG of the named procedure, or nil.
func (u *Unit) Graph(name string) *Graph { return u.Procs[name] }

// Object returns the spec of the named object and whether it exists.
func (u *Unit) Object(name string) (ObjectSpec, bool) {
	for _, o := range u.Objects {
		if o.Name == name {
			return o, true
		}
	}
	return ObjectSpec{}, false
}

// IsOpen reports whether the unit still has an environment interface.
func (u *Unit) IsOpen() bool {
	if len(u.EnvChans) > 0 {
		return true
	}
	for _, set := range u.EnvParams {
		if len(set) > 0 {
			return true
		}
	}
	return false
}

// Size returns the total node and arc counts over all procedures.
func (u *Unit) Size() (nodes, arcs int) {
	for _, name := range u.Order {
		n, a := u.Procs[name].Size()
		nodes += n
		arcs += a
	}
	return nodes, arcs
}

// Validate checks every procedure graph and cross-procedure invariants.
func (u *Unit) Validate() error {
	for _, name := range u.Order {
		g, ok := u.Procs[name]
		if !ok {
			return fmt.Errorf("unit: missing graph for procedure %q", name)
		}
		if err := g.Validate(); err != nil {
			return err
		}
	}
	for _, p := range u.Processes {
		if _, ok := u.Procs[p]; !ok {
			return fmt.Errorf("unit: process references missing procedure %q", p)
		}
	}
	for name := range u.EnvParams {
		if _, ok := u.Procs[name]; !ok {
			return fmt.Errorf("unit: env params reference missing procedure %q", name)
		}
	}
	return nil
}

// String renders all procedure graphs.
func (u *Unit) String() string {
	var b strings.Builder
	for _, name := range u.Order {
		b.WriteString(u.Procs[name].String())
	}
	return b.String()
}

// CompileUnit builds the Unit of a checked, normalized program.
func CompileUnit(prog *ast.Program, info *sem.Info) *Unit {
	u := &Unit{
		Procs:     make(map[string]*Graph),
		EnvParams: make(map[string]map[int]bool),
		EnvChans:  make(map[string]bool),
		Arrays:    info.Arrays,
	}
	for _, pd := range prog.Procs() {
		g := Build(pd)
		u.Procs[pd.Name.Name] = g
		u.Order = append(u.Order, pd.Name.Name)
	}
	for _, od := range prog.Objects() {
		u.Objects = append(u.Objects, ObjectSpec{Name: od.Name.Name, Kind: od.Kind, Arg: od.Arg})
	}
	for _, ps := range prog.Processes() {
		u.Processes = append(u.Processes, ps.Proc.Name)
	}
	for proc, set := range info.EnvParams {
		cp := make(map[int]bool, len(set))
		for i := range set {
			cp[i] = true
		}
		u.EnvParams[proc] = cp
	}
	for name := range info.EnvChans {
		u.EnvChans[name] = true
	}
	return u
}

// SortedEnvParams returns the env parameter indices of proc in ascending
// order (helper for deterministic output).
func (u *Unit) SortedEnvParams(proc string) []int {
	var out []int
	for i := range u.EnvParams[proc] {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
