package interp_test

import (
	"strings"
	"testing"

	"reclose/internal/interp"
)

// TestParseEngine pins the two engine spellings and their round trip
// through String, and that any other name — the closure tier deleted in
// PR 17 like one never heard of — gets the one unknown-engine error
// naming both.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want interp.EngineKind
	}{
		{"", interp.EngineBytecode},
		{"bytecode", interp.EngineBytecode},
		{"ref", interp.EngineRef},
	} {
		got, err := interp.ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("ParseEngine(%q).String() = %q", tc.in, got)
		}
	}
	for _, in := range []string{"slots", "valves", "Bytecode"} {
		_, err := interp.ParseEngine(in)
		if err == nil || !strings.Contains(err.Error(), `unknown engine "`+in+`" (want bytecode or ref)`) {
			t.Errorf("ParseEngine(%q): error %v, want the unknown-engine error", in, err)
		}
	}
}

// TestNewSystemExecutesBytecode pins which machine the one constructor
// builds: the machine of Replay dispatches bytecode instructions when
// it runs, like the machine NewMachine hands the explorer.
func TestNewSystemExecutesBytecode(t *testing.T) {
	s := sys(t, `
chan out[2];
proc main() {
    var x = 1;
    send(out, x + 1);
    x = x * 3;
    send(out, x);
}
process main;
`)
	var tal interp.Tally
	s.SetTally(&tal)
	ch := interp.FixedChooser(0)
	if out := s.Init(ch); out != nil {
		t.Fatalf("Init: %s", out)
	}
	if tal.Instrs == 0 {
		t.Fatal("Init dispatched no bytecode instruction")
	}
	before := tal.Instrs
	if _, out := s.Step(0, ch); out != nil {
		t.Fatalf("Step: %s", out)
	}
	if tal.Instrs == before {
		t.Fatal("Step dispatched no bytecode instruction")
	}
}
