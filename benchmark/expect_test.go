package main

import (
	"strings"
	"testing"
)

const cleanRun = `prepared system: automatically closed (procs=9 nodes 230->230) (engine bytecode)
search: states=260925 transitions=121995 paths=138930 replays=138929 maxdepth=28 deadlocks=0 violations=0 traps=0 divergences=0 depth-hits=70532 truncated=false
elapsed: 1.834s (66519 transitions/s)
coverage: 61/64 visible operations exercised
no deadlocks, violations, or errors found
summary: states=260925 transitions=121995 paths=138930 incidents=0 workers=0 wall=1.834s trans/s=66519
`

const deadlockRun = `search: states=20112 transitions=15043 paths=5069 replays=5068 maxdepth=28 deadlocks=1 violations=0 traps=0 divergences=0 depth-hits=0 truncated=false
FOUND: 1 deadlock(s), 0 violation(s), 0 error(s), 0 divergence(s), 0 internal error(s)
summary: states=20112 transitions=15043 paths=5069 incidents=1 workers=0 wall=24ms trans/s=622787
--- sample 1 ---
`

const livelockRun = `FOUND: 0 deadlock(s), 2 violation(s), 0 error(s), 0 divergence(s), 0 internal error(s), 197 livelock(s)
summary: states=12431 transitions=7990 paths=4441 incidents=199 workers=2 wall=881ms trans/s=9066
`

const closingRun = `closing: procs=6251 nodes 50003->18753 (eliminated 31250, env-ops 1, toss 0/0 outcomes) params-removed=6251 args-undefed=1 divergences=0 branching 6250->0
`

func TestParseCLI(t *testing.T) {
	for _, tc := range []struct {
		name, tool, stdout string
		exit               int
		want               verdict
		errHas             string
	}{
		{"clean", toolVerisoft, cleanRun, 0, verdict{States: 260925, Transitions: 121995, Paths: 138930}, ""},
		{"deadlock", toolVerisoft, deadlockRun, 3, verdict{Exit: 3, States: 20112, Transitions: 15043, Paths: 5069, Deadlocks: 1}, ""},
		{"livelock", toolVerisoft, livelockRun, 3, verdict{Exit: 3, States: 12431, Transitions: 7990, Paths: 4441, Violations: 2, Livelocks: 197}, ""},
		{"closing", toolReclose, closingRun, 0, verdict{NodesOpen: 50003, NodesClosed: 18753}, ""},
		{"no summary", toolVerisoft, "search: states=1\n", 0, verdict{}, "no summary: line"},
		{"no closing", toolReclose, cleanRun, 0, verdict{}, "no closing: line"},
		{"kinds do not add up", toolVerisoft, strings.Replace(deadlockRun, "incidents=1", "incidents=2", 1), 3, verdict{}, "adds up to 1"},
		{"incidents without FOUND", toolVerisoft, strings.Replace(cleanRun, "incidents=0", "incidents=4", 1), 3, verdict{}, "adds up to 0"},
	} {
		got, err := parseCLI(tc.tool, tc.exit, tc.stdout)
		switch {
		case tc.errHas != "":
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.errHas)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case got != tc.want:
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestAnswerCheck(t *testing.T) {
	full := answer{verdict: verdict{Exit: 3, States: 10, Transitions: 8, Paths: 3, Deadlocks: 2}}
	if err := full.check(full.verdict); err != nil {
		t.Errorf("equal verdicts: %v", err)
	}
	off := full.verdict
	off.Transitions++
	if full.check(off) == nil {
		t.Error("a pinned answer accepted a different transition count")
	}

	// The reference tier counts more paths and more deadlocks, but must
	// agree on the exit code and on which kinds occur.
	ref := answer{verdict: verdict{Exit: 3, States: 99, Paths: 40, Deadlocks: 14}, kindsOnly: true}
	if err := ref.check(verdict{Exit: 3, States: 31, Paths: 6, Deadlocks: 1}); err != nil {
		t.Errorf("same kinds: %v", err)
	}
	if ref.check(verdict{Exit: 3, Violations: 1}) == nil {
		t.Error("a kinds-only answer accepted a different kind")
	}
	if ref.check(verdict{Exit: 0}) == nil {
		t.Error("a kinds-only answer accepted a different exit code")
	}
}

// Every fixed item has a hand-recorded answer, every recorded answer
// belongs to an item, and BENCHMARK.json names workloads of the table.
func TestTablesAgree(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for _, wl := range workloads {
		for _, it := range wl.Items {
			if used[it.Name] {
				t.Errorf("item name %s is used twice", it.Name)
			}
			used[it.Name] = true
			if _, ok := expected[it.Name]; !ok {
				t.Errorf("%s/%s has no answer in expected.json", wl.Name, it.Name)
			}
			if _, ok := programs[it.Prog]; !ok {
				t.Errorf("%s/%s names unknown program %q", wl.Name, it.Name, it.Prog)
			}
		}
	}
	for name := range expected {
		if !used[name] {
			t.Errorf("expected.json has an answer for %s, which no workload runs", name)
		}
	}

	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads the driver measures: a subset
	// of the table, in the table's order (README.md says which and why).
	next := 0
	for _, w := range spec.Workloads {
		for next < len(workloads) && workloads[next].Name != w.Name {
			next++
		}
		if next == len(workloads) {
			t.Fatalf("BENCHMARK.json lists workload %s, which the table does not have at or after that place", w.Name)
		}
	}
}
