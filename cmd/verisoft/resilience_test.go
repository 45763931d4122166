package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"reclose/internal/progs"
)

// TestCLICheckpointWriteIsAtomic: -checkpoint leaves a loadable file
// and no temp droppings, even when the search is cut by a budget.
func TestCLICheckpointWriteIsAtomic(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(3))
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	var out, errb bytes.Buffer
	code := realMain([]string{"-max-states", "20", "-checkpoint", ckpt, prog}, &out, &errb)
	if code != 4 {
		t.Fatalf("budget-cut exit = %d, want 4\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp dropping left behind: %s", e.Name())
		}
	}
	// The checkpoint actually resumes.
	out.Reset()
	errb.Reset()
	code = realMain([]string{"-resume", ckpt, prog}, &out, &errb)
	if code != 3 { // philosophers deadlock: incidents found
		t.Fatalf("resume exit = %d, want 3\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestCLITruncatedCheckpointCleanError is the satellite regression
// test: a truncated or partially-written checkpoint must produce a
// clean decode error (exit 1, "malformed snapshot"), never a panic or
// a silent misread.
func TestCLITruncatedCheckpointCleanError(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(3))
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	var out, errb bytes.Buffer
	if code := realMain([]string{"-max-states", "20", "-checkpoint", ckpt, prog}, &out, &errb); code != 4 {
		t.Fatalf("seed run exit = %d, want 4", code)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string][]byte{
		"truncated-half": data[:len(data)/2],
		"truncated-tail": data[:len(data)-2],
		"empty":          {},
		"garbage-prefix": append([]byte("garbage"), data...),
	} {
		bad := filepath.Join(t.TempDir(), name+".ckpt")
		if err := os.WriteFile(bad, mutate, 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		errb.Reset()
		code := realMain([]string{"-resume", bad, prog}, &out, &errb)
		if code != 1 {
			t.Errorf("%s: exit = %d, want 1\nstdout:\n%s", name, code, out.String())
		}
		if !strings.Contains(errb.String(), "malformed snapshot") {
			t.Errorf("%s: stderr = %q, want a malformed-snapshot error", name, errb.String())
		}
	}
}

// syncBuf is a goroutine-safe bytes.Buffer for streams written from
// more than one goroutine.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCLISecondSignalForcesExit3 queues two interrupts for the
// handler: the first starts a graceful drain, the second — preferred
// by the handler over search completion — forces exit code 3 through
// the exitNow seam. (Real OS signal delivery and a real os.Exit are
// exercised by the verisoftd subprocess suite, which shares the
// two-signal contract.)
func TestCLISecondSignalForcesExit3(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(3))

	var mu sync.Mutex
	forcedCode := -1
	old := exitNow
	exitNow = func(code int) {
		mu.Lock()
		forcedCode = code
		mu.Unlock()
	}
	testSignals = make(chan os.Signal, 2)
	testSignals <- syscall.SIGINT
	testSignals <- syscall.SIGINT
	defer func() {
		exitNow = old
		testSignals = nil
	}()

	var out bytes.Buffer
	errb := &syncBuf{} // written by both the run and handler goroutines
	done := make(chan int, 1)
	go func() { done <- realMain([]string{prog}, &out, errb) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("search never drained")
	}
	// The forced exit runs on the handler goroutine; give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		code := forcedCode
		mu.Unlock()
		if code == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("forced exit code = %d, want 3\nstderr:\n%s", code, errb.String())
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(errb.String(), "forcing immediate exit") {
		t.Errorf("stderr = %q, want the forced-exit announcement", errb.String())
	}
}

// TestCPUProfileFlag: -cpuprofile writes a profile of the run, stopped
// on every way out — the forced exit of a second signal included — and
// a path it cannot create is an error before the search starts.
func TestCPUProfileFlag(t *testing.T) {
	prog := writeProg(t, progs.Philosophers(5))
	// isProfile reports whether path holds a finished profile: pprof
	// writes the gzipped protocol buffer when the profile is stopped.
	isProfile := func(path string) bool {
		b, err := os.ReadFile(path)
		return err == nil && len(b) > 2 && b[0] == 0x1f && b[1] == 0x8b
	}
	t.Run("run", func(t *testing.T) {
		prof := filepath.Join(t.TempDir(), "cpu.prof")
		var out, errb bytes.Buffer
		if code := realMain([]string{"-cpuprofile", prof, prog}, &out, &errb); code != 3 {
			t.Fatalf("exit code = %d, want 3\nstderr:\n%s", code, errb.String())
		}
		if !isProfile(prof) {
			t.Errorf("%s holds no profile", prof)
		}
	})
	t.Run("unwritable", func(t *testing.T) {
		prof := filepath.Join(t.TempDir(), "no-such-dir", "cpu.prof")
		var out, errb bytes.Buffer
		if code := realMain([]string{"-cpuprofile", prof, prog}, &out, &errb); code != 1 {
			t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, errb.String())
		}
		if out.Len() != 0 || !strings.Contains(errb.String(), "verisoft: cpuprofile: ") {
			t.Errorf("stdout %q, stderr %q: want no output and the cpuprofile error", out.String(), errb.String())
		}
	})
	t.Run("forced-exit", func(t *testing.T) {
		prof := filepath.Join(t.TempDir(), "cpu.prof")
		forced := make(chan bool, 1)
		old := exitNow
		exitNow = func(int) { forced <- isProfile(prof) }
		testSignals = make(chan os.Signal, 2)
		testSignals <- syscall.SIGINT
		testSignals <- syscall.SIGINT
		defer func() {
			exitNow = old
			testSignals = nil
		}()
		var out bytes.Buffer
		realMain([]string{"-cpuprofile", prof, prog}, &out, &syncBuf{})
		select {
		case stopped := <-forced:
			if !stopped {
				t.Error("the forced exit came before the profile was written")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no forced exit")
		}
	})
}
