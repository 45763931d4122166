package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"reclose/internal/leaderelect"
	"reclose/internal/progs"
)

// summaryRE is the pinned format of the summary: line — the registry-
// rendered run summary the CLI prints last before incident samples.
var summaryRE = regexp.MustCompile(`(?m)^summary: states=(\d+) transitions=(\d+) paths=(\d+) incidents=(\d+) workers=(\d+) wall=\S+ trans/s=\d+$`)

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mc")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLISummaryAndMetricsAgree runs the full command in-process on a
// deadlocking program with -metrics-out and -trace-out and checks the
// core observability promise end to end: the summary: line, the metrics
// JSON, and the trace's run_stop event all report the same numbers.
func TestCLISummaryAndMetricsAgree(t *testing.T) {
	prog := writeProg(t, progs.DeadlockProne)
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.jsonl")

	var out, errb bytes.Buffer
	code := realMain([]string{"-metrics-out", metrics, "-trace-out", trace, prog}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (incidents found)\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}

	m := summaryRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no summary: line matching %v in output:\n%s", summaryRE, out.String())
	}
	atoi := func(s string) int64 {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad summary number %q: %v", s, err)
		}
		return n
	}
	states, transitions, paths, incidents := atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4])
	if incidents == 0 {
		t.Error("summary reports 0 incidents for a deadlocking program")
	}

	// Metrics file: versioned, and counters equal to the summary's.
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("read -metrics-out: %v", err)
	}
	var doc struct {
		V        int              `json:"v"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-metrics-out is not JSON: %v", err)
	}
	if doc.V != 1 {
		t.Errorf("metrics version = %d, want 1", doc.V)
	}
	for name, want := range map[string]int64{
		"explore.states":      states,
		"explore.transitions": transitions,
		"explore.paths":       paths,
		"explore.incidents":   incidents,
	} {
		if got := doc.Counters[name]; got != want {
			t.Errorf("metrics %s = %d, summary says %d", name, got, want)
		}
	}

	// Trace file: every line is a versioned event; the stream is bracketed
	// by run_start and run_stop, and run_stop agrees with the summary.
	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("read -trace-out: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(tdata), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines, want at least run_start + run_stop", len(lines))
	}
	type event struct {
		V      int    `json:"v"`
		Seq    int64  `json:"seq"`
		Ev     string `json:"ev"`
		States int64  `json:"states"`
	}
	var events []event
	for i, ln := range lines {
		var ev event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", i+1, err, ln)
		}
		if ev.V != 1 {
			t.Errorf("trace line %d version = %d, want 1", i+1, ev.V)
		}
		if ev.Seq != int64(i+1) {
			t.Errorf("trace line %d seq = %d, want %d", i+1, ev.Seq, i+1)
		}
		events = append(events, ev)
	}
	if events[0].Ev != "run_start" {
		t.Errorf("first event = %q, want run_start", events[0].Ev)
	}
	last := events[len(events)-1]
	if last.Ev != "run_stop" {
		t.Errorf("last event = %q, want run_stop", last.Ev)
	}
	if last.States != states {
		t.Errorf("run_stop states = %d, summary says %d", last.States, states)
	}
}

// TestCLICleanRunExitZero checks the happy path: a program whose full
// search finds nothing exits 0 and still prints a well-formed summary.
func TestCLICleanRunExitZero(t *testing.T) {
	prog := writeProg(t, progs.FigureP)
	var out, errb bytes.Buffer
	code := realMain([]string{prog}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	m := summaryRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no summary: line in output:\n%s", out.String())
	}
	if m[4] != "0" {
		t.Errorf("summary incidents = %s, want 0", m[4])
	}
}

// TestCLIParallelSummary checks that -workers is reflected in the
// summary's workers field.
func TestCLIParallelSummary(t *testing.T) {
	prog := writeProg(t, progs.DeadlockProne)
	var out, errb bytes.Buffer
	code := realMain([]string{"-workers", "2", prog}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3\nstderr:\n%s", code, errb.String())
	}
	m := summaryRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no summary: line in output:\n%s", out.String())
	}
	if m[5] != "2" {
		t.Errorf("summary workers = %s, want 2", m[5])
	}
}

// TestCLIProgressEndsOnSummary checks -progress on runs long enough to
// tick, however they end: the last progress: line on stderr carries the
// summary: line's four counts — the engines publish what they counted
// in batches, and all of it when they return.
func TestCLIProgressEndsOnSummary(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(4))
	progressRE := regexp.MustCompile(`(?m)^progress: states=(\d+) transitions=(\d+) paths=(\d+) incidents=(\d+) .*elapsed=\S+$`)
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"sequential", nil, 3},
		{"workers2", []string{"-workers", "2"}, 3},
		// A cut run exits 3 if it met an incident first, else 4; which
		// one, under two workers, follows the schedule.
		{"max-states", []string{"-max-states", "1000"}, 4},
		{"workers2-max-states", []string{"-workers", "2", "-max-states", "1000"}, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append(append([]string{"-progress", "1ms", "-no-sleep"}, c.args...), prog)
			if code := realMain(args, &out, &errb); code != c.code && !(c.code < 0 && (code == 3 || code == 4)) {
				t.Fatalf("exit code = %d, want %d\nstderr:\n%s", code, c.code, errb.String())
			}
			sum := summaryRE.FindStringSubmatch(out.String())
			lines := progressRE.FindAllStringSubmatch(errb.String(), -1)
			if sum == nil || len(lines) == 0 {
				t.Fatalf("want a summary: line and progress: lines\nstdout:\n%s\nstderr:\n%s", out.String(), errb.String())
			}
			if last := lines[len(lines)-1]; fmt.Sprint(last[1:5]) != fmt.Sprint(sum[1:5]) {
				t.Errorf("last progress: line %q, summary: line %q", last[0], sum[0])
			}
			if c.code != 3 && sum[1] != "1000" {
				t.Errorf("a -max-states 1000 cut counted %s states", sum[1])
			}
		})
	}
}

// TestCLIUsageErrors pins the CLI error contract: bad flags and a
// missing operand exit 2, an unreadable input exits 1.
func TestCLIUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := realMain(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code := realMain([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
	if code := realMain([]string{"/nonexistent/prog.mc"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit = %d, want 1", code)
	}
}

// TestCLIEngineFlag pins -engine's two spellings: the reference oracle
// reports the default engine's counters, and anything else — the
// deleted closure tier's name like any other — is refused by name
// before a search starts.
func TestCLIEngineFlag(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(3))
	var def, errb bytes.Buffer
	if code := realMain([]string{prog}, &def, &errb); code != 3 {
		t.Fatalf("default run: exit = %d, want 3\nstderr:\n%s", code, errb.String())
	}
	want := summaryRE.FindStringSubmatch(def.String())
	if want == nil {
		t.Fatalf("no summary: line in output:\n%s", def.String())
	}
	for _, tc := range []struct {
		engine string
		code   int
		stdout string // substring of stdout, when the run starts
		stderr string // the whole of stderr, when it does not
	}{
		{engine: "bytecode", code: 3, stdout: "(engine bytecode)"},
		{engine: "ref", code: 3, stdout: "(engine ref)"},
		{engine: "slots", code: 1, stderr: "verisoft: unknown engine \"slots\" (want bytecode or ref)\n"},
		{engine: "valves", code: 1, stderr: "verisoft: unknown engine \"valves\" (want bytecode or ref)\n"},
	} {
		var out, errb bytes.Buffer
		if code := realMain([]string{"-engine", tc.engine, prog}, &out, &errb); code != tc.code {
			t.Errorf("-engine %s: exit = %d, want %d\nstderr:\n%s", tc.engine, code, tc.code, errb.String())
			continue
		}
		if tc.code == 1 {
			if errb.String() != tc.stderr || out.Len() != 0 {
				t.Errorf("-engine %s: stderr %q, stdout %q; want stderr %q and no output", tc.engine, errb.String(), out.String(), tc.stderr)
			}
			continue
		}
		if !strings.Contains(out.String(), tc.stdout) {
			t.Errorf("-engine %s: stdout does not say %q:\n%s", tc.engine, tc.stdout, out.String())
		}
		got := summaryRE.FindStringSubmatch(out.String())
		if got == nil {
			t.Fatalf("-engine %s: no summary: line in output:\n%s", tc.engine, out.String())
		}
		if g, w := strings.Join(got[1:6], " "), strings.Join(want[1:6], " "); g != w {
			t.Errorf("-engine %s: summary counters %s, the default engine's %s", tc.engine, g, w)
		}
	}
}

// TestCLICacheFlags runs a cached parallel search with an explicit
// shard count and memory budget and checks the cache section lands in
// the metrics file: the shard gauge honors -cache-shards and the
// hit/miss counters are populated.
func TestCLICacheFlags(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(3))
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-state-cache", "-cache-shards", "4", "-cache-mem", "1048576",
		"-workers", "2", "-por", "off", "-no-sleep",
		"-metrics-out", metrics, prog,
	}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (deadlocks found)\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	m := summaryRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no summary: line in output:\n%s", out.String())
	}
	if m[5] != "2" {
		t.Errorf("summary workers = %s, want 2 (cache must not force sequential mode)", m[5])
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("read -metrics-out: %v", err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-metrics-out is not JSON: %v", err)
	}
	if got := doc.Gauges["explore.cache.shards"]; got != 4 {
		t.Errorf("explore.cache.shards gauge = %d, want 4", got)
	}
	if doc.Counters["explore.cache.hits"] == 0 {
		t.Error("explore.cache.hits = 0, want > 0 on the philosophers model")
	}
	if doc.Counters["explore.cache.inserts"] == 0 {
		t.Error("explore.cache.inserts = 0, want > 0")
	}
}

// TestCLIPORFlags drives the -por flag end to end: a dynamic-POR run on
// the philosophers ring still finds the deadlock (exit 3), its metrics
// file carries the dynamic-POR counters, an invalid spelling is
// rejected before any search starts, and the deleted -search, -interest
// and -no-por flags are usage errors: -por off is the one way to turn
// the reduction off.
func TestCLIPORFlags(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(3))
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	trace := filepath.Join(dir, "trace.jsonl")
	var out, errb bytes.Buffer
	code := realMain([]string{
		"-por", "dynamic",
		"-metrics-out", metrics, "-trace-out", trace, prog,
	}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (deadlock found)\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("read -metrics-out: %v", err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-metrics-out is not JSON: %v", err)
	}
	if _, ok := doc.Counters["explore.por.backtracks"]; !ok {
		t.Error("metrics file has no explore.por.backtracks counter")
	}
	tdata, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("read -trace-out: %v", err)
	}
	start := strings.SplitN(string(tdata), "\n", 2)[0]
	if !strings.Contains(start, `"ev":"run_start"`) ||
		!strings.Contains(start, `"por":"dynamic"`) {
		t.Errorf("run_start event does not carry the POR mode: %s", start)
	}

	// A static run spelled explicitly matches the default run's summary.
	var defOut, expOut bytes.Buffer
	if code := realMain([]string{prog}, &defOut, &errb); code != 3 {
		t.Fatalf("default run: exit = %d, want 3", code)
	}
	if code := realMain([]string{"-por", "static", prog}, &expOut, &errb); code != 3 {
		t.Fatalf("explicit static run: exit = %d, want 3", code)
	}
	def := summaryRE.FindStringSubmatch(defOut.String())
	exp := summaryRE.FindStringSubmatch(expOut.String())
	if def == nil || exp == nil {
		t.Fatalf("missing summary lines:\n%s\n%s", defOut.String(), expOut.String())
	}
	for i := 1; i <= 4; i++ {
		if def[i] != exp[i] {
			t.Errorf("explicit -por=static diverged from default summary: %v vs %v", exp[1:5], def[1:5])
		}
	}

	// Rejections.
	if code := realMain([]string{"-por", "bogus", prog}, &out, &errb); code != 1 {
		t.Errorf("-por bogus: exit = %d, want 1", code)
	}
	for _, args := range [][]string{{"-search", "dfs", prog}, {"-interest", "x", prog}, {"-no-por", prog}} {
		var uerr bytes.Buffer
		if code := realMain(args, &out, &uerr); code != 2 || !strings.Contains(uerr.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: exit = %d, want 2 and an undefined-flag message; stderr:\n%s", args, code, uerr.String())
		}
	}
}

// TestCLILiveness runs -liveness end to end: the seeded leader-election
// livelock exits 3 with a livelock-aware verdict, and the same program
// without the flag reports no livelocks (the verdict line must not
// mention them either).
func TestCLILiveness(t *testing.T) {
	prog := writeProg(t, leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}))

	var out, errb bytes.Buffer
	code := realMain([]string{"-liveness", "-depth", "120", prog}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit code = %d, want 3 (livelock found)\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "livelock(s)") {
		t.Errorf("verdict does not count livelocks:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	code = realMain([]string{"-depth", "40", "-max-states", "50000", prog}, &out, &errb)
	if strings.Contains(out.String(), "livelock") {
		t.Errorf("liveness-off output mentions livelocks (code %d):\n%s", code, out.String())
	}
}

// TestCLILivenessSaysWhenIncomplete pins the completeness line: a run
// whose red search ran out of budget (the program of explore's
// TestRedSearchBudgetIsCounted) still exits 0 — exit codes are the
// benchmark's — but says beside the summary that "no livelocks" holds
// only up to the budget; a run that cut nothing prints no such line.
func TestCLILivenessSaysWhenIncomplete(t *testing.T) {
	var src strings.Builder
	src.WriteString("chan start[1];\nproc gate() {\n    var t = VS_toss(1);\n    t = 0;\n    progress send(start, t);\n}\nprocess gate;\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&src, "chan w%d[8];\nproc worker%d() { var i; for (i = 0; i < 8; i = i + 1) { send(w%d, i); } }\nprocess worker%d;\n", i, i, i, i)
	}
	var out, errb bytes.Buffer
	if code := realMain([]string{"-liveness", "-state-cache", writeProg(t, src.String())}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if want := "liveness: incomplete (1 of 1 red searches cut at 4096 states)"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}

	out.Reset()
	prog := writeProg(t, leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}))
	realMain([]string{"-liveness", "-state-cache", "-depth", "120", prog}, &out, &errb)
	if strings.Contains(out.String(), "liveness: incomplete") {
		t.Errorf("a run that cut no red search says it is incomplete:\n%s", out.String())
	}
}
