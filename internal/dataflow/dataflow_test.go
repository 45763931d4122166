package dataflow_test

import (
	"strings"
	"testing"

	"reclose/internal/ast"
	"reclose/internal/cfg"
	"reclose/internal/core"
	"reclose/internal/dataflow"
	"reclose/internal/progs"
)

// analyze compiles and analyzes a source program.
func analyze(t *testing.T, src string) *dataflow.Result {
	t.Helper()
	u := core.MustCompileSource(src)
	return dataflow.Analyze(u)
}

// nodeVI returns V_I of the node whose printable text contains want.
func nodeVI(t *testing.T, pr *dataflow.ProcResult, substr string) dataflow.VarSet {
	t.Helper()
	for _, n := range pr.Graph.Nodes {
		if containsNodeText(pr.Graph, n, substr) {
			return pr.VI(n.ID)
		}
	}
	t.Fatalf("no node containing %q in:\n%s", substr, pr.Graph)
	return nil
}

func containsNodeText(g *cfg.Graph, n *cfg.Node, substr string) bool {
	switch n.Kind {
	case cfg.NCond:
		return n.Cond != nil && strings.Contains(ast.FormatExpr(n.Cond), substr)
	case cfg.NAssign, cfg.NCall:
		return n.Stmt != nil && strings.Contains(ast.FormatStmt(n.Stmt, 0), substr)
	}
	return false
}

// TestTaintChain reproduces the §5 example: with env input x,
// a = x%2; b = a+1; c = b chains taint through define-use arcs.
func TestTaintChain(t *testing.T) {
	res := analyze(t, progs.SimpleTaint)
	pr := res.Proc("p")
	if !nodeVI(t, pr, "a + 1").Has("a") {
		t.Errorf("b = a+1 should have a in V_I:\n%s", pr)
	}
	if !nodeVI(t, pr, "c = b").Has("b") {
		t.Errorf("c = b should have b in V_I:\n%s", pr)
	}
	if !nodeVI(t, pr, "send").Has("c") {
		t.Errorf("send(out, c) should have c in V_I:\n%s", pr)
	}
}

// TestPathIndependentNoTaint reproduces the other §5 example: values
// that differ only across control paths are not functionally dependent.
func TestPathIndependentNoTaint(t *testing.T) {
	res := analyze(t, progs.PathIndependent)
	pr := res.Proc("p")
	// Only the conditional uses x; the assignments to b use a only.
	if got := nodeVI(t, pr, "x > 0"); !got.Has("x") {
		t.Errorf("conditional should be tainted: %v", got.Sorted())
	}
	if got := nodeVI(t, pr, "a - 1"); len(got) != 0 {
		t.Errorf("b = a-1 should be clean, got %v", got.Sorted())
	}
	if got := nodeVI(t, pr, "c = b"); len(got) != 0 {
		t.Errorf("c = b should be clean, got %v", got.Sorted())
	}
	if got := nodeVI(t, pr, "send"); len(got) != 0 {
		t.Errorf("send should be clean, got %v", got.Sorted())
	}
}

// TestRedefinitionKillsTaint checks that a strong redefinition stops the
// environment dependence: x = 5 after consuming env x cleans later uses.
func TestRedefinitionKillsTaint(t *testing.T) {
	res := analyze(t, `
chan out[1];
env chan out;
env p.x;
proc p(x) {
    var y = x + 1; // tainted
    x = 5;         // strong redefinition
    y = x + 1;     // clean: uses the system-defined x
    send(out, y);
}
process p;
`)
	pr := res.Proc("p")
	// The final send's argument y comes only from the clean assignment
	// (the tainted y is killed by the second y = x + 1).
	if got := nodeVI(t, pr, "send"); len(got) != 0 {
		t.Errorf("send should be clean after redefinitions, got %v\n%s", got.Sorted(), pr)
	}
}

// TestMergeTaints checks that a use reachable from both a tainted and a
// clean definition is tainted (may-analysis).
func TestMergeTaints(t *testing.T) {
	res := analyze(t, `
chan out[1];
env chan out;
env p.x;
proc p(x) {
    var y = 0;
    if (x > 0) {
        y = x;
    }
    send(out, y);
}
process p;
`)
	pr := res.Proc("p")
	if got := nodeVI(t, pr, "send"); !got.Has("y") {
		t.Errorf("send's y merges tainted and clean defs; want tainted, got %v", got.Sorted())
	}
}

// TestRecvEnvChanTaints checks that receiving from an env-facing channel
// taints the target variable's uses.
func TestRecvEnvChanTaints(t *testing.T) {
	res := analyze(t, `
chan in[1];
chan out[1];
env chan in;
proc p() {
    var v;
    recv(in, v);
    if (v > 0) {
        send(out, 1);
    }
}
proc q() {
    var w;
    recv(out, w);
}
process p;
process q;
`)
	pr := res.Proc("p")
	if got := nodeVI(t, pr, "v > 0"); !got.Has("v") {
		t.Errorf("conditional on env-received v should be tainted, got %v", got.Sorted())
	}
	// The send of the constant 1 on a system channel is clean.
	if got := nodeVI(t, pr, "send"); len(got) != 0 {
		t.Errorf("send(out, 1) should be clean, got %v", got.Sorted())
	}
}

// TestAliasThroughPointer checks taint flow through pointers: writing a
// tainted value through p taints uses of the pointee.
func TestAliasThroughPointer(t *testing.T) {
	res := analyze(t, `
chan out[1];
env chan out;
env f.x;
proc f(x) {
    var r = 0;
    var p = &r;
    *p = x;
    send(out, r);
}
process f;
`)
	pr := res.Proc("f")
	if got := nodeVI(t, pr, "send"); !got.Has("r") {
		t.Errorf("send(out, r) should see taint through *p = x, got %v\n%s", got.Sorted(), pr)
	}
}

// TestWeakUpdateDoesNotKill checks that a may-alias store does not kill
// other definitions: with two possible targets, the old taint survives.
func TestWeakUpdateDoesNotKill(t *testing.T) {
	res := analyze(t, `
chan out[1];
env chan out;
env f.x;
proc f(x) {
    var a = x;   // tainted
    var b = 0;
    var p = &b;
    if (b == 0) {
        p = &a;
    }
    *p = 7;      // weak: may target a or b; does not clean a
    send(out, a);
}
process f;
`)
	pr := res.Proc("f")
	if got := nodeVI(t, pr, "send"); !got.Has("a") {
		t.Errorf("weak *p = 7 must not kill the tainted def of a, got %v\n%s", got.Sorted(), pr)
	}
}

// TestInterprocEnvParams checks the fixpoint's effective env-parameter
// sets on the Interproc program.
func TestInterprocEnvParams(t *testing.T) {
	res := analyze(t, progs.Interproc)
	if !res.EnvParams["helper"][0] {
		t.Errorf("helper's first parameter should be effectively env-defined: %v", res.EnvParams)
	}
	if res.EnvParams["helper"][1] {
		t.Errorf("helper's pointer parameter should stay: %v", res.EnvParams)
	}
	if !res.EnvTainted["helper"] || !res.EnvTainted["top"] {
		t.Errorf("both procedures compute with env values: %v", res.EnvTainted)
	}
	if res.Iterations < 2 {
		t.Errorf("fixpoint should need at least 2 rounds, took %d", res.Iterations)
	}
}

// TestArraysAreWeak checks that element stores never kill whole-array
// definitions.
func TestArraysAreWeak(t *testing.T) {
	res := analyze(t, `
chan out[1];
env chan out;
env f.x;
proc f(x) {
    var a[4];
    a[0] = x;  // taints a
    a[1] = 3;  // weak: does not clean a
    send(out, a[0]);
}
process f;
`)
	pr := res.Proc("f")
	// Normalization hoists a[0] into a temporary; the load must be
	// tainted (through the surviving a[0] = x definition) and the taint
	// must reach the send.
	if got := nodeVI(t, pr, "= a[0]"); !got.Has("a") {
		t.Errorf("load of a[0] lost array taint, got %v\n%s", got.Sorted(), pr)
	}
	if got := nodeVI(t, pr, "send"); len(got) == 0 {
		t.Errorf("array taint lost by weak element store before send\n%s", pr)
	}
}

// TestDerefEnvPointerRejected checks the analysis flags stores through
// env-dependent pointers.
func TestDerefEnvPointerRejected(t *testing.T) {
	u := core.MustCompileSource(`
chan out[1];
env chan out;
env f.x;
proc f(x) {
    var a = 0;
    var p = &a;
    var q = p + x;
    *q = 3;
    send(out, 1);
}
process f;
`)
	res := dataflow.Analyze(u)
	if err := res.Err(); err == nil {
		t.Error("store through env-dependent pointer not rejected")
	}
}

// TestAliasClosure exercises PointsTo.Closure on a pointer chain.
func TestAliasClosure(t *testing.T) {
	u := core.MustCompileSource(`
proc f() {
    var a = 0;
    var p = &a;
    var q = &p;
    g(q);
}
proc g(r) {
    *r = 0;
}
process f;
`)
	pt := dataflow.AnalyzeAliases(u.Graph("f"))
	cl := pt.Closure([]string{"q"})
	if !cl.Has("p") || !cl.Has("a") {
		t.Errorf("closure(q) = %v, want p and a", cl.Sorted())
	}
	if !pt.AddrTaken.Has("a") || !pt.AddrTaken.Has("p") {
		t.Errorf("addr-taken = %v", pt.AddrTaken.Sorted())
	}
}

// TestVarSetOps covers the small set helpers.
func TestVarSetOps(t *testing.T) {
	s := dataflow.NewVarSet("b", "a")
	if got := s.Sorted(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Sorted = %v", got)
	}
	if s.Add("a") {
		t.Error("Add of existing member reported change")
	}
	if !s.Add("c") {
		t.Error("Add of new member reported no change")
	}
	c := s.Clone()
	c.Add("d")
	if s.Has("d") {
		t.Error("Clone aliases the original")
	}
	if s.AddAll(c) != true || !s.Has("d") {
		t.Error("AddAll failed")
	}
}

// TestChannelTaint checks the cross-process direction of the fixpoint:
// env data forwarded over a system channel taints receives from it.
func TestChannelTaint(t *testing.T) {
	res := analyze(t, progs.Forwarder)
	if !res.TaintedObjs["pipe"] {
		t.Fatalf("pipe should be tainted: %v", res.TaintedObjs)
	}
	pr := res.Proc("back")
	if got := nodeVI(t, pr, "v > 0"); !got.Has("v") {
		t.Errorf("branch on forwarded env data should be tainted, got %v\n%s", got.Sorted(), pr)
	}
}

// TestSharedVarTaint checks the same through shared variables.
func TestSharedVarTaint(t *testing.T) {
	res := analyze(t, `
shared g = 0;
chan in[1];
chan out[1];
env chan in;
proc w() {
    var x;
    recv(in, x);
    vwrite(g, x);
}
proc r() {
    var v;
    vread(g, v);
    if (v > 0) {
        send(out, 1);
    }
}
proc sink() {
    var z;
    recv(out, z);
}
process w;
process r;
process sink;
`)
	if !res.TaintedObjs["g"] {
		t.Fatalf("g should be tainted: %v", res.TaintedObjs)
	}
	pr := res.Proc("r")
	if got := nodeVI(t, pr, "v > 0"); !got.Has("v") {
		t.Errorf("branch on shared env data should be tainted, got %v", got.Sorted())
	}
}
