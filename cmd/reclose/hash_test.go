package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reclose/internal/fiveess"
	"reclose/internal/randprog"
	"reclose/internal/synth"
)

var update = flag.Bool("update", false, "re-pin testdata/output-hashes.txt from this tree's output")

const hashFile = "testdata/output-hashes.txt"

// hashInputs returns the programs TestRecloseOutputHashes closes, by
// name: the five close_scale programs of the benchmark and two hundred
// random programs under each of two generator configurations — the
// default one and TestOracleRandprog's (internal/dataflow).
func hashInputs() (names []string, srcs map[string]string) {
	srcs = map[string]string{}
	add := func(name, src string) {
		names = append(names, name)
		srcs[name] = src
	}
	add("synth-straight-n20000", synth.Program(synth.StraightLine, 20000))
	add("synth-branchy-n20000", synth.Program(synth.Branchy, 20000))
	add("synth-loopy-n6000", synth.Program(synth.Loopy, 6000))
	add("synth-manyprocs-n50000", synth.Program(synth.ManyProcs, 50000))
	add("5ess-h16-l3-f2000-c8-stub", fiveess.Source(fiveess.Config{Handlers: 16, Lines: 3, Features: 2000, Chain: 8, WithStub: true}))
	for seed := int64(0); seed < 200; seed++ {
		add(fmt.Sprintf("randprog-%d", seed), randprog.Generate(rand.New(rand.NewSource(seed)), randprog.Config{}))
	}
	for seed := int64(0); seed < 200; seed++ {
		cfg := randprog.Config{Processes: 1 + int(seed%3), Helpers: int(seed % 4), MaxStmts: 4 + int(seed%6)}
		add(fmt.Sprintf("randprog-oracle-%d", seed), randprog.Generate(rand.New(rand.NewSource(seed)), cfg))
	}
	return names, srcs
}

// TestRecloseOutputHashes pins every printout of reclose that shows the
// closed program or the analysis behind it — plain, -emit, -dot, -stats,
// -dump-analysis and -partition — by the SHA-256 of its output and its
// exit code, on 405 programs (hashInputs). A change to the closer that
// changes any byte of any of them fails here; -update re-pins the file
// after a change meant to.
func TestRecloseOutputHashes(t *testing.T) {
	names, srcs := hashInputs()
	dir := t.TempDir()
	var got strings.Builder
	for _, name := range names {
		file := filepath.Join(dir, name+".mc")
		if err := os.WriteFile(file, []byte(srcs[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"plain", "-emit", "-dot", "-stats", "-dump-analysis", "-partition"} {
			args := []string{file}
			if mode != "plain" {
				args = []string{mode, file}
			}
			h := sha256.New()
			var stderr bytes.Buffer
			code := realMain(args, h, &stderr)
			fmt.Fprintf(&got, "%s %s %d %x\n", name, mode, code, h.Sum(nil))
		}
	}
	if *update {
		if err := os.WriteFile(hashFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(hashFile)
	if err != nil {
		t.Fatalf("%v (go test -run TestRecloseOutputHashes -update pins it)", err)
	}
	wantLines := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(want))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 {
			wantLines[f[0]+" "+f[1]] = sc.Text()
		}
	}
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(lines) != len(wantLines) {
		t.Errorf("%d (program, mode) pairs, %s pins %d", len(lines), hashFile, len(wantLines))
	}
	differ := 0
	for _, line := range lines {
		f := strings.Fields(line)
		if w := wantLines[f[0]+" "+f[1]]; line != w {
			if differ++; differ <= 10 {
				t.Errorf("reclose %s on %s:\n got %s\nwant %s", f[1], f[0], line, w)
			}
		}
	}
	if differ > 10 {
		t.Errorf("... %d pairs differ in all", differ)
	}
}
