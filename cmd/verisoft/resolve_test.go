package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reclose/internal/dist"
	"reclose/internal/explore"
	"reclose/internal/jobs"
	"reclose/internal/mgenv"
	"reclose/internal/progs"
)

// TestOneRuleFourFrontEnds runs each refusal of explore.Options.Resolve
// through every front end that takes an option set — explore.Explore,
// this command, job admission and a worker process's hello — and each
// must refuse with Resolve's message. A front end that cannot spell a
// rule skips it: a job request has no cache, spill or sample keys, and MaxStates does not cross the wire.
func TestOneRuleFourFrontEnds(t *testing.T) {
	src := progs.Philosophers(3)
	prog := writeProg(t, src)
	unit, _, err := mgenv.Prepare(src, "auto", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []struct {
		name string
		opt  explore.Options
		args []string // the same as verisoft flags
		job  string   // the same as job request keys, "" for none
		wire bool     // whether the fields cross the wire
		msg  string
	}{
		{"negative-depth", explore.Options{MaxDepth: -1}, []string{"-depth", "-1"}, `"max_depth":-1`, true, "MaxDepth is -1; it must not be negative"},
		{"negative-states", explore.Options{MaxStates: -5}, []string{"-max-states", "-5"}, `"max_states":-5`, false, "MaxStates is -5; it must not be negative"},
		{"negative-samples", explore.Options{MaxIncidents: -1}, []string{"-samples", "-1"}, "", true, "MaxIncidents is -1; it must not be negative"},
		{"negative-spill-depth", explore.Options{SpillDepth: -2}, []string{"-spill-depth", "-2"}, "", true, "SpillDepth is -2; it must not be negative"},
		{"negative-shards", explore.Options{StateCache: true, CacheShards: -4}, []string{"-state-cache", "-cache-shards", "-4"}, "", true, "CacheShards is -4; it must not be negative"},
		{"negative-cache-mem", explore.Options{StateCache: true, MaxCacheBytes: -1}, []string{"-state-cache", "-cache-mem", "-1"}, "", true, "MaxCacheBytes is -1; it must not be negative"},
		{"liveness-dynamic", explore.Options{Liveness: true, POR: explore.PORDynamic}, []string{"-liveness", "-por", "dynamic"}, `"liveness":true,"por":"dynamic"`, true, "Liveness does not compose with POR dynamic"},
		{"liveness-spill", explore.Options{Liveness: true, SnapshotSpill: true}, []string{"-liveness", "-snapshot-spill"}, "", true, "Liveness does not compose with SnapshotSpill"},
		{"cache-knobs-uncached", explore.Options{CacheShards: 4}, []string{"-cache-shards", "4"}, "", true, "CacheShards and MaxCacheBytes require StateCache"},
	} {
		t.Run(rule.name, func(t *testing.T) {
			if _, err := rule.opt.Resolve(); err == nil || !strings.Contains(err.Error(), rule.msg) {
				t.Fatalf("Resolve: %v, want %q", err, rule.msg)
			}
			if _, err := explore.Explore(unit, rule.opt); err == nil || !strings.Contains(err.Error(), rule.msg) {
				t.Errorf("explore.Explore: %v, want %q", err, rule.msg)
			}

			var out, errb bytes.Buffer
			code := realMain(append(rule.args, prog), &out, &errb)
			if stderr := errb.String(); code != 1 || out.Len() != 0 || !strings.HasPrefix(stderr, "verisoft: explore: ") ||
				!strings.Contains(stderr, rule.msg) || strings.Count(stderr, "\n") != 1 {
				t.Errorf("verisoft %v: exit %d, stdout %q, stderr %q; want exit 1 and %q alone", rule.args, code, out.String(), stderr, rule.msg)
			}

			if rule.job != "" {
				if _, err := jobs.ParseRequest([]byte(`{"source":"x",` + rule.job + `}`)); err == nil || !strings.Contains(err.Error(), rule.msg) {
					t.Errorf("jobs.ParseRequest(%s): %v, want %q", rule.job, err, rule.msg)
				}
			}

			if rule.wire {
				refusal, err := helloRefusal(t, dist.Hello{Version: dist.ProtocolVersion, Program: dist.Program{Source: src}, Options: rule.opt})
				if refusal.Type != dist.MsgError || !strings.Contains(refusal.Err, rule.msg) || err == nil || err.Error() != refusal.Err {
					t.Errorf("worker hello: %q frame %q, WorkerMain returned %v; want an error frame with %q", refusal.Type, refusal.Err, err, rule.msg)
				}
			}
		})
	}
}

// helloRefusal sends hello to dist.WorkerMain over pipes and returns the
// frame it answers with and what it returns.
func helloRefusal(t *testing.T, hello dist.Hello) (*dist.Message, error) {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	defer inW.Close()
	done := make(chan error, 1)
	go func() {
		err := dist.WorkerMain(inR, outW)
		outW.Close()
		done <- err
	}()
	if err := dist.WriteFrame(inW, &dist.Message{Type: dist.MsgHello, Hello: &hello}); err != nil {
		t.Fatal(err)
	}
	m, err := dist.ReadFrame(outR)
	if err != nil {
		t.Fatal(err)
	}
	return m, <-done
}

// TestCLITraceCarriesResolvedOptions pins what a -trace-out run_start
// says: the options the flags built, resolved, in their JSON form — cache,
// sleep sets, sample budget and stop policy included — beside the mode
// and the state budget.
func TestCLITraceCarriesResolvedOptions(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(3))
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-state-cache", "-cache-mem", "1048576", "-no-sleep", "-samples", "7", "-stop-on-violation",
		"-workers", "-1", "-max-states", "100000", "-trace-out", trace, prog}
	c := newCLI(io.Discard, io.Discard)
	if err := c.fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want, err := c.opt.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := realMain(args, &out, &errb); code != 3 {
		t.Fatalf("exit %d, want 3\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var start struct {
		Ev        string          `json:"ev"`
		Mode      string          `json:"mode"`
		Options   json.RawMessage `json:"options"`
		MaxStates int64           `json:"max_states"`
	}
	if err := json.Unmarshal([]byte(strings.SplitN(string(data), "\n", 2)[0]), &start); err != nil {
		t.Fatal(err)
	}
	var got explore.Options
	if err := json.Unmarshal(start.Options, &got); err != nil {
		t.Fatalf("run_start options %s: %v", start.Options, err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if start.Ev != "run_start" || start.Mode != "parallel" || start.MaxStates != 100000 || string(gotJSON) != string(wantJSON) {
		t.Errorf("run_start: ev %q mode %q max_states %d options %s;\nwant run_start, parallel, 100000 and %s",
			start.Ev, start.Mode, start.MaxStates, gotJSON, wantJSON)
	}
	for _, key := range []string{`"state_cache":true`, `"no_sleep":true`, `"max_cache_bytes":1048576`, `"max_incidents":7`, `"stop":"stop-on-violation"`} {
		if !strings.Contains(string(start.Options), key) {
			t.Errorf("run_start options %s lack %s", start.Options, key)
		}
	}
}
