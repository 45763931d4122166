package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
