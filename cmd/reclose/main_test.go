package main

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/progs"
)

// TestGolden pins reclose's three printouts — the default listing,
// -stats and -dump-analysis — on the paper's Figure 2 and Figure 3
// programs and the quickstart program. The golden files were recorded
// from the commit before the sparse taint analysis replaced the dense
// reaching-definitions solver, so they also pin "same answers".
func TestGolden(t *testing.T) {
	files, err := filepath.Glob("testdata/*.mc")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		for flag, suffix := range map[string]string{"": ".golden", "-stats": ".stats.golden", "-dump-analysis": ".dump-analysis.golden"} {
			args := []string{file}
			if flag != "" {
				args = []string{flag, file}
			}
			var stdout, stderr bytes.Buffer
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("reclose %v: exit %d\n%s", args, code, stderr.String())
			}
			want, err := os.ReadFile(strings.TrimSuffix(file, ".mc") + suffix)
			if err != nil {
				t.Fatal(err)
			}
			if stdout.String() != string(want) {
				t.Errorf("reclose %v:\n%s\nwant:\n%s", args, stdout.String(), want)
			}
		}
	}
}

// TestTestdataMatchesSources keeps the testdata programs equal to the
// sources they were copied from. (testdata/quickstart.mc is its own
// source.)
func TestTestdataMatchesSources(t *testing.T) {
	for file, want := range map[string]string{
		"testdata/figure2.mc": progs.FigureP,
		"testdata/figure3.mc": progs.FigureQ,
	} {
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s differs from its source", file)
		}
	}
}

// TestDumpAnalysisDeterministic checks the interface printout on a
// program with several env parameters and several tainted objects: it
// used to follow map iteration order.
func TestDumpAnalysisDeterministic(t *testing.T) {
	file := filepath.Join(t.TempDir(), "p.mc")
	src := `
chan in[1];
chan c1[1];
chan c2[1];
chan c3[1];
chan c4[1];
env chan in;
env top.z;
env top.a;
env top.m;
proc top(z, a, m) {
    var v;
    recv(in, v);
    send(c4, v);
    send(c2, z);
    send(c3, a);
    send(c1, m);
}
proc sink() {
    var w;
    recv(c1, w);
    recv(c2, w);
    recv(c3, w);
    recv(c4, w);
}
process top;
process sink;
`
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "effective environment interface:\n  top: env params [z a m]\n  objects carrying env data: [c1 c2 c3 c4]\n"
	for i := 0; i < 20; i++ {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"-dump-analysis", file}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr.String())
		}
		if !strings.HasSuffix(stdout.String(), want) {
			t.Fatalf("run %d:\n%s\nwant suffix:\n%s", i, stdout.String(), want)
		}
	}
}

func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-no-such-flag", "x.mc"}, 2},
		{[]string{filepath.Join(t.TempDir(), "missing.mc")}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("reclose %v: exit %d, want %d", tc.args, code, tc.code)
		}
		if stderr.Len() == 0 {
			t.Errorf("reclose %v: nothing on stderr", tc.args)
		}
	}
}

// TestCPUProfileFlag: -cpuprofile writes a finished profile and changes
// no output; a profile that cannot be created is an error before any
// output.
func TestCPUProfileFlag(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "figure2.mc")
	if err := os.WriteFile(file, []byte(progs.FigureP), 0o644); err != nil {
		t.Fatal(err)
	}
	var plain, plainErr bytes.Buffer
	if code := realMain([]string{"-stats", file}, &plain, &plainErr); code != 0 {
		t.Fatalf("reclose -stats: exit %d: %s", code, plainErr.String())
	}
	prof := filepath.Join(dir, "cpu.prof")
	var out, errb bytes.Buffer
	if code := realMain([]string{"-cpuprofile", prof, "-stats", file}, &out, &errb); code != 0 {
		t.Fatalf("reclose -cpuprofile: exit %d: %s", code, errb.String())
	}
	if out.String() != plain.String() {
		t.Errorf("-cpuprofile changed stdout:\n%s\nwant:\n%s", out.String(), plain.String())
	}
	// pprof writes the gzipped protocol buffer when the profile stops.
	if b, err := os.ReadFile(prof); err != nil || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("%s holds no profile (%v)", prof, err)
	}
	out.Reset()
	errb.Reset()
	bad := filepath.Join(dir, "no-such-dir", "cpu.prof")
	if code := realMain([]string{"-cpuprofile", bad, file}, &out, &errb); code != 1 {
		t.Fatalf("unwritable -cpuprofile: exit %d, want 1", code)
	}
	if out.Len() != 0 || !strings.Contains(errb.String(), "reclose: cpuprofile: ") {
		t.Errorf("stdout %q, stderr %q: want no output and the cpuprofile error", out.String(), errb.String())
	}
}

// TestTemporaryAvoidsObjectName: a hoisted argument's temporary does not
// take the name of the channel the send names, so the program closes and
// the send keeps its object.
func TestTemporaryAvoidsObjectName(t *testing.T) {
	file := filepath.Join(t.TempDir(), "clash.mc")
	src := "chan __t1[1];\nenv f.x;\nproc f(x) {\n    send(__t1, x + 1);\n}\nprocess f;\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{file}, {"-dump-cfg", file}} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("reclose %v: exit %d: %s", args, code, stderr.String())
		}
		if args[0] == "-dump-cfg" && !strings.Contains(stdout.String(), "send(__t1, __t2)") {
			t.Errorf("reclose -dump-cfg: want send(__t1, __t2):\n%s", stdout.String())
		}
	}
}

// TestEmitReparses closes every program of internal/progs — the paper's
// Figure 2 and Figure 3 among them — with -emit and with -partition
// -emit, and closes each emitted source again: the statistics lines are
// comments, not declarations, and a partitioned parameter is a local of
// its procedure, not an input nothing declares. The re-closed partitioned
// program has exactly the traces of the partitioned unit it was emitted
// from. Under -partition -dot both statistics lines are comments too.
func TestEmitReparses(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"figure2": progs.FigureP, "figure3": progs.FigureQ, "simple-taint": progs.SimpleTaint,
		"path-independent": progs.PathIndependent, "producer-consumer": progs.ProducerConsumer,
		"deadlock-prone": progs.DeadlockProne, "assert-violation": progs.AssertViolation,
		"router": progs.Router, "interproc": progs.Interproc, "forwarder": progs.Forwarder,
		"philosophers-3": progs.Philosophers(3), "pipeline-2-2": progs.Pipeline(2, 2),
		"router-scaled-2-2": progs.RouterScaled(2, 2), "lossy-transfer-2-1": progs.LossyTransfer(2, 1),
	} {
		in := filepath.Join(dir, name+".mc")
		if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, stderr bytes.Buffer
		for _, args := range [][]string{{"-partition", "-dot", in}, {"-partition", "-emit", in}, {"-emit", in}} {
			out.Reset()
			if code := realMain(args, &out, &stderr); code != 0 {
				t.Fatalf("reclose %v: exit %d\n%s", args, code, stderr.String())
			}
			if lines := "\n" + out.String(); strings.Contains(lines, "\npartitioning:") || strings.Contains(lines, "\nclosing:") {
				t.Errorf("reclose %v: a bare statistics line:\n%s", args, out.String())
			}
			if !slices.Contains(args, "-emit") {
				continue
			}
			again := filepath.Join(dir, name+".emitted.mc")
			if err := os.WriteFile(again, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			var quiet bytes.Buffer
			if code := realMain([]string{"-q", again}, &quiet, &stderr); code != 0 {
				t.Errorf("reclose %v %s: the output does not close again (exit %d): %s", args[:len(args)-1], name, code, stderr.String())
				continue
			}
			if args[0] == "-partition" {
				sameTraces(t, name, src, out.String())
			}
		}
	}
}

// sameTraces holds the program emitted by reclose -partition -emit, closed
// again, to the partitioned unit it was emitted from: the two have the
// same traces.
func sameTraces(t *testing.T, name, src, emitted string) {
	t.Helper()
	part, _, _, err := core.ClosePartitioned(core.MustCompileSource(src))
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := core.CloseSource(emitted)
	if err != nil {
		t.Fatal(err)
	}
	opt := explore.Options{MaxDepth: 300, POR: explore.POROff, NoSleep: true}
	want, _, err := explore.TraceSet(part, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := explore.TraceSet(again, opt, 0); err != nil || len(want) == 0 || !maps.Equal(got, want) {
		t.Errorf("%s: the re-closed -emit output has %d traces, the partitioned unit %d (%v)", name, len(got), len(want), err)
	}
}
