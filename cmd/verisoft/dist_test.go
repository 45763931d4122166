package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"reclose/internal/progs"
)

// TestMain lets the test binary stand in for the verisoft executable:
// a -dist-workers run respawns os.Executable() with -worker-mode, and
// when that executable is this test binary the flag routes straight
// into realMain's worker path — so the dist CLI tests drive real
// coordinator/worker subprocesses.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-worker-mode" {
			os.Exit(realMain([]string{"-worker-mode"}, os.Stdout, os.Stderr))
		}
	}
	os.Exit(m.Run())
}

// TestCLIDistWorkers runs a full multi-process search from the CLI and
// checks the user-visible contract: the incident exit code, the
// distributed worker-stat lines, and a summary identical to the
// in-process run's counters.
func TestCLIDistWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	prog := writeProg(t, progs.DeadlockProne)

	var seqOut, errb bytes.Buffer
	if code := realMain([]string{prog}, &seqOut, &errb); code != 3 {
		t.Fatalf("sequential exit code = %d, want 3\nstderr:\n%s", code, errb.String())
	}
	seq := summaryRE.FindStringSubmatch(seqOut.String())
	if seq == nil {
		t.Fatalf("no summary: line in sequential output:\n%s", seqOut.String())
	}

	var out bytes.Buffer
	errb.Reset()
	code := realMain([]string{"-dist-workers", "2", "-dist-slice", "16", prog}, &out, &errb)
	if code != 3 {
		t.Fatalf("dist exit code = %d, want 3\nstderr:\n%s\nstdout:\n%s", code, errb.String(), out.String())
	}
	got := summaryRE.FindStringSubmatch(out.String())
	if got == nil {
		t.Fatalf("no summary: line in dist output:\n%s", out.String())
	}
	// states, transitions, paths, incidents must match the sequential
	// run exactly; the workers field reports the fleet size instead.
	for i, field := range []string{"states", "transitions", "paths", "incidents"} {
		if got[i+1] != seq[i+1] {
			t.Errorf("dist summary %s = %s, sequential = %s", field, got[i+1], seq[i+1])
		}
	}
	if got[5] != "2" {
		t.Errorf("dist summary workers = %s, want 2", got[5])
	}
	if !bytes.Contains(out.Bytes(), []byte("W0:")) || !bytes.Contains(out.Bytes(), []byte("W1:")) {
		t.Errorf("dist output missing per-worker stat lines:\n%s", out.String())
	}
	if bytes.Contains(out.Bytes(), []byte("state cache:")) {
		t.Errorf("an uncached dist run printed a state-cache line:\n%s", out.String())
	}

	// With -state-cache each worker process keeps its own cache, which
	// is not what the flag means under -workers: the run says so, right
	// after the prepared-system line and in the dist_start event, and
	// still finds the incidents.
	privateRE := regexp.MustCompile(`(?m)^prepared system: .*\nstate cache: private to each of 2 worker processes$`)
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	out.Reset()
	errb.Reset()
	code = realMain([]string{"-dist-workers", "2", "-dist-slice", "16", "-state-cache", "-trace-out", trace, prog}, &out, &errb)
	if code != 3 {
		t.Fatalf("cached dist exit code = %d, want 3\nstderr:\n%s\nstdout:\n%s", code, errb.String(), out.String())
	}
	if !privateRE.Match(out.Bytes()) {
		t.Errorf("cached dist output does not say the cache is private, after prepared system:\n%s", out.String())
	}
	if got := summaryRE.FindStringSubmatch(out.String()); got == nil || got[4] != seq[4] {
		t.Errorf("cached dist summary %v, want the sequential run's %s incidents", got, seq[4])
	}
	events, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"cache":"private"`) || strings.Contains(string(events), "cache_partitioned") {
		t.Errorf("dist_start event does not carry cache: \"private\":\n%s", events)
	}
	// The search is the one driver's, so the trace has its events around
	// the transport's.
	for _, ev := range []string{"dist_start", "run_start", "dist_batch", "dist_result", "run_stop"} {
		if !strings.Contains(string(events), `"ev":"`+ev+`"`) {
			t.Errorf("the trace of a distributed run has no %s event:\n%s", ev, events)
		}
	}
	if !strings.Contains(string(events), `"ev":"run_start","mode":"distributed"`) {
		t.Errorf("run_start does not say the run is distributed:\n%s", events)
	}

	// One worker process has the only cache there is: nothing to say.
	out.Reset()
	errb.Reset()
	if code := realMain([]string{"-dist-workers", "1", "-state-cache", prog}, &out, &errb); code != 3 {
		t.Fatalf("one-worker cached dist exit code = %d, want 3\nstderr:\n%s", code, errb.String())
	}
	if bytes.Contains(out.Bytes(), []byte("state cache:")) {
		t.Errorf("a one-worker cached run printed a state-cache line:\n%s", out.String())
	}
}

// TestCLIDistDriverFlags checks that the flags the search driver serves
// mean under -dist-workers what they mean without it: -resume finishes a
// cut search, -progress reports, -checkpoint-every is a wall-clock
// period.
func TestCLIDistDriverFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	prog := writeProg(t, progs.Philosophers(3))
	full := []string{"-no-por", "-no-sleep"}
	run := func(wantCode int, args ...string) (stdout, stderr string) {
		t.Helper()
		var out, errb bytes.Buffer
		if code := realMain(append(append(full, args...), prog), &out, &errb); code != wantCode {
			t.Fatalf("%v: exit code = %d, want %d\nstderr:\n%s\nstdout:\n%s", args, code, wantCode, errb.String(), out.String())
		}
		return out.String(), errb.String()
	}
	out, _ := run(3)
	want := summaryRE.FindStringSubmatch(out)
	if want == nil {
		t.Fatalf("no summary: line in the uninterrupted run's output:\n%s", out)
	}

	// Cut in-process by a state budget, finished by two worker processes.
	ckpt := filepath.Join(t.TempDir(), "cut.ckpt")
	run(3, "-max-states", "300", "-checkpoint", ckpt) // the cut has a deadlock already
	out, stderr := run(3, "-dist-workers", "2", "-dist-slice", "64", "-resume", ckpt, "-progress", "10ms")
	got := summaryRE.FindStringSubmatch(out)
	if got == nil || !strings.Contains(out, "resuming: ") {
		t.Fatalf("the resumed distributed run printed no resuming: or summary: line:\n%s", out)
	}
	for i, field := range []string{"states", "transitions", "paths", "incidents"} {
		if got[i+1] != want[i+1] {
			t.Errorf("cut + distributed resume: summary %s = %s, the uninterrupted run has %s", field, got[i+1], want[i+1])
		}
	}
	if !strings.Contains(stderr, "progress: states="+want[1]+" ") {
		t.Errorf("-dist-workers 2 -progress 10ms did not end on a progress: line with the final count:\n%s", stderr)
	}

	// A run that completes inside the period writes no checkpoint.
	never := filepath.Join(t.TempDir(), "never.ckpt")
	run(3, "-dist-workers", "2", "-dist-slice", "64", "-checkpoint", never, "-checkpoint-every", "1h")
	if _, err := os.Stat(never); !os.IsNotExist(err) {
		t.Errorf("-checkpoint-every 1h wrote a checkpoint during a run of milliseconds (stat: %v)", err)
	}
}

// TestCLIDistFlagValidation pins the flag interactions: a flag that
// says "requires" is refused without what it requires — the dist tuning
// flags without -dist-workers, the cache tuning flags without
// -state-cache — and dist mode rejects the modes it cannot serve. Each
// is exit 1 with a message naming the flag (or, for what explore's
// Resolve decides, the Options field), before any search.
func TestCLIDistFlagValidation(t *testing.T) {
	prog := writeProg(t, progs.DeadlockProne)
	for _, tc := range []struct {
		args []string
		want string // substring of the stderr message
	}{
		{[]string{"-dist-slice", "64", prog}, "require -dist-workers"},
		{[]string{"-dist-lease", "1s", prog}, "require -dist-workers"},
		{[]string{"-cache-shards", "4", prog}, "CacheShards and MaxCacheBytes require StateCache"},
		{[]string{"-cache-mem", "1048576", prog}, "CacheShards and MaxCacheBytes require StateCache"},
		{[]string{"-dist-workers", "2", "-cache-mem", "1048576", prog}, "CacheShards and MaxCacheBytes require StateCache"},
		{[]string{"-dist-workers", "2", "-shortest", prog}, "-dist-workers does not compose"},
		{[]string{"-dist-workers", "-1", prog}, "-dist-workers must be >= 0"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(tc.args, &out, &errb); code != 1 {
			t.Errorf("%v: exit code = %d, want 1\nstderr:\n%s", tc.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr %q does not say %q", tc.args, errb.String(), tc.want)
		}
		if strings.Contains(out.String(), "prepared system:") {
			t.Errorf("%v: the run got as far as preparing the system:\n%s", tc.args, out.String())
		}
	}
}
