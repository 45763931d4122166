package codegen_test

import (
	"strings"
	"testing"

	"reclose/internal/codegen"
	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/fiveess"
	"reclose/internal/mgenv"
	"reclose/internal/progs"
)

// roundTrip closes src, emits the closed unit as MiniC source,
// re-compiles it, and returns both trace sets (full interleavings).
func roundTrip(t *testing.T, src string) (orig, emitted map[string]bool, text string) {
	t.Helper()
	closed, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	text, err = codegen.Emit(closed)
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	// Env-facing stubs re-parse as an open interface; re-closing restores
	// the stubs without structural change.
	reUnit, _, err := core.CloseSource(text)
	if err != nil {
		t.Fatalf("re-compile emitted source: %v\n%s", err, text)
	}
	opt := explore.Options{MaxDepth: 300, POR: explore.POROff, NoSleep: true}
	orig, _, err = explore.TraceSet(closed, opt, 0)
	if err != nil {
		t.Fatalf("explore original: %v", err)
	}
	emitted, _, err = explore.TraceSet(reUnit, opt, 0)
	if err != nil {
		t.Fatalf("explore emitted: %v\n%s", err, text)
	}
	return orig, emitted, text
}

// TestRoundTripTraceEquality: the emitted trampoline encoding has
// exactly the behaviors of the closed unit it was generated from.
func TestRoundTripTraceEquality(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"figP", progs.FigureP},
		{"figQ", progs.FigureQ},
		{"path-independent", progs.PathIndependent},
		{"producer-consumer", progs.ProducerConsumer},
		{"deadlock", progs.DeadlockProne},
		{"assert", progs.AssertViolation},
		{"forwarder", progs.Forwarder},
		{"interproc", progs.Interproc},
		{"philosophers", progs.Philosophers(3)},
		{"pipeline", progs.Pipeline(2, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, emitted, text := roundTrip(t, tc.src)
			if len(orig) == 0 {
				t.Fatal("no original traces")
			}
			if w, ok := explore.Subset(orig, emitted); !ok {
				t.Errorf("original trace missing from emitted program: %s\n%s", w, text)
			}
			if w, ok := explore.Subset(emitted, orig); !ok {
				t.Errorf("emitted program has extra trace: %s\n%s", w, text)
			}
		})
	}
}

// TestRoundTripIncidents: verdicts survive the source round trip.
func TestRoundTripIncidents(t *testing.T) {
	closed, _, err := core.CloseSource(progs.DeadlockProne)
	if err != nil {
		t.Fatal(err)
	}
	text, err := codegen.Emit(closed)
	if err != nil {
		t.Fatal(err)
	}
	reUnit, _, err := core.CloseSource(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	rep, err := explore.Explore(reUnit, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deadlocks == 0 {
		t.Errorf("deadlock lost in round trip: %s", rep)
	}
}

// TestEmitFiveESS: the large synthetic application survives a round
// trip and stays explorable.
func TestEmitFiveESS(t *testing.T) {
	closed, _, err := core.CloseSource(fiveess.Source(fiveess.Scale("small")))
	if err != nil {
		t.Fatal(err)
	}
	text, err := codegen.Emit(closed)
	if err != nil {
		t.Fatal(err)
	}
	reUnit, _, err := core.CloseSource(text)
	if err != nil {
		t.Fatalf("%v", err)
	}
	rep, err := explore.Explore(reUnit, explore.Options{MaxDepth: 200, MaxStates: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Traps != 0 || rep.Violations != 0 {
		t.Errorf("emitted app misbehaves: %s\n%v", rep, rep.Samples)
	}
}

// TestEmitOpenUnit: an open unit emits env declarations that re-parse to
// the same interface.
func TestEmitOpenUnit(t *testing.T) {
	unit := core.MustCompileSource(progs.FigureP)
	text, err := codegen.Emit(unit)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "env p.x;") {
		t.Errorf("env parameter not emitted:\n%s", text)
	}
	reUnit, err := core.CompileSource(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if !reUnit.IsOpen() {
		t.Error("re-parsed unit lost its environment interface")
	}
}

// TestEmitRejectsDaemons: naive compositions are not expressible.
func TestEmitRejectsDaemons(t *testing.T) {
	naive, _, err := mgenv.ComposeSource(progs.FigureP, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codegen.Emit(naive); err == nil {
		t.Error("daemon unit accepted")
	}
}

// TestPCNameCollision: a program that already uses __pc still emits.
func TestPCNameCollision(t *testing.T) {
	src := `
chan c[1];
proc main() {
    var __pc = 7;
    send(c, __pc);
}
process main;
`
	closed, _, err := core.CloseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	text, err := codegen.Emit(closed)
	if err != nil {
		t.Fatal(err)
	}
	reUnit, err := core.CompileSource(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	set, _, err := explore.TraceSet(reUnit, explore.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || !set["P0:send(c)=7 "] {
		t.Errorf("traces = %v, want the single send of 7\n%s", set, text)
	}
}
