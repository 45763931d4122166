package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"reclose/internal/jobs"
	"reclose/internal/progs"
)

// TestMain re-execs the test binary as the daemon itself when the
// child gate is set: subprocess tests get a real process with real
// signal delivery and a real SIGKILL — and, because the child is the
// (possibly race-instrumented) test binary, the daemon runs under the
// same -race as the suite.
func TestMain(m *testing.M) {
	if os.Getenv("VERISOFTD_CHILD") == "1" {
		args := strings.Split(os.Getenv("VERISOFTD_ARGS"), "\n")
		os.Exit(realMain(args, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// child is one spawned daemon process.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port scraped from the bound-address line
	out  *bufio.Scanner
}

var addrRE = regexp.MustCompile(`listening on (http://[^ ]+)`)

// startChild launches the daemon with the given flags and waits for
// its bound address.
func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"VERISOFTD_CHILD=1",
		"VERISOFTD_ARGS="+strings.Join(args, "\n"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if mch := addrRE.FindStringSubmatch(sc.Text()); mch != nil {
				got <- mch[1]
				return
			}
		}
		got <- ""
	}()
	select {
	case base := <-got:
		if base == "" {
			t.Fatal("daemon exited before printing its address")
		}
		return &child{cmd: cmd, base: base, out: sc}
	case <-deadline:
		t.Fatal("daemon never printed its address")
		return nil
	}
}

// waitExit waits for the child and returns its exit code.
func (c *child) waitExit(t *testing.T) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if err == nil {
			return 0
		}
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("wait: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit")
	}
	return -1
}

func submit(t *testing.T, base string, req jobs.Request) *jobs.View {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, raw)
	}
	var v jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return &v
}

// poll fetches one job view; reachable=false means the daemon is gone.
func poll(base, id string) (*jobs.View, bool) {
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	var v jobs.View
	if json.NewDecoder(resp.Body).Decode(&v) != nil {
		return nil, false
	}
	return &v, true
}

func pollUntilDone(t *testing.T, base, id string) *jobs.View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := poll(base, id); ok {
			if v.State == jobs.StateDone {
				return v
			}
			if v.State == jobs.StateFailed || v.State == jobs.StateCancelled {
				t.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestDaemonSmoke is the CI smoke test: boot, submit, poll to done,
// read metrics, drain with one SIGTERM, exit 0.
func TestDaemonSmoke(t *testing.T) {
	dir := t.TempDir()
	c := startChild(t, "-addr", "localhost:0", "-data", dir, "-workers", "1")

	v := submit(t, c.base, jobs.Request{Source: progs.Philosophers(3)})
	got := pollUntilDone(t, c.base, v.ID)
	if got.Result == nil || got.Result.Deadlocks == 0 {
		t.Fatalf("result = %+v, want deadlocks", got.Result)
	}

	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if doc.Counters["jobs.completed"] != 1 {
		t.Errorf("jobs.completed = %d, want 1", doc.Counters["jobs.completed"])
	}

	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := c.waitExit(t); code != 0 {
		t.Fatalf("graceful drain exit code = %d, want 0", code)
	}
}

// slowRules stalls every explored path so a job stays running long
// enough to kill or signal the daemon mid-job. Sleep is the one
// explore-level fault that cannot change the search's counters.
func slowRules(ms int) string {
	return fmt.Sprintf(`[{"point":"explore.path","action":"sleep","sleep_ms":%d}]`, ms)
}

// TestDaemonSIGKILLRecovery is the acceptance crash test with a real
// SIGKILL: the daemon dies mid-job with zero warning, a new daemon
// over the same data directory resumes from the last journaled
// checkpoint, and the finished job's counters match an uninterrupted
// run of the same program.
func TestDaemonSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons; skipped in -short")
	}
	req := jobs.Request{Source: progs.Philosophers(3)}

	// Uninterrupted baseline, same binary, clean data dir.
	base := startChild(t, "-addr", "localhost:0", "-data", t.TempDir(), "-workers", "1")
	want := pollUntilDone(t, base.base, submit(t, base.base, req).ID)
	base.cmd.Process.Signal(syscall.SIGTERM)
	base.waitExit(t)

	dir := t.TempDir()
	c := startChild(t,
		"-addr", "localhost:0", "-data", dir, "-workers", "1",
		"-checkpoint-every-paths", "1",
		"-fault-rules", slowRules(2))
	v := submit(t, c.base, req)

	// Wait until the job has journaled at least one checkpoint, then
	// kill the daemon cold.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never checkpointed")
		}
		if view, ok := poll(c.base, v.ID); ok && view.CheckpointStates > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	c.cmd.Wait()

	// Reboot on the same journal, full speed, and let recovery finish
	// the job.
	c2 := startChild(t, "-addr", "localhost:0", "-data", dir, "-workers", "1")
	got := pollUntilDone(t, c2.base, v.ID)
	if got.Resumes == 0 {
		t.Error("recovered job did not resume from its checkpoint")
	}
	if g, w := comparable_(got.Result), comparable_(want.Result); g != w {
		t.Errorf("recovered result = %s, want %s", g, w)
	}
	if len(got.Result.Samples) != len(want.Result.Samples) {
		t.Errorf("recovered samples = %d, want %d", len(got.Result.Samples), len(want.Result.Samples))
	}
	// Zero journal corruption from the SIGKILL.
	if corrupt, _ := filepath.Glob(filepath.Join(dir, "jobs", "*.corrupt")); len(corrupt) != 0 {
		t.Errorf("journal corruption after SIGKILL: %v", corrupt)
	}
	c2.cmd.Process.Signal(syscall.SIGTERM)
	if code := c2.waitExit(t); code != 0 {
		t.Errorf("second daemon drain exit = %d", code)
	}
}

// comparable_ projects a result to its crash-recovery-stable fields as
// canonical JSON: samples (order varies with slicing) and cache prunes
// (the cache is per-attempt, not checkpointed) are excluded.
func comparable_(r *jobs.Result) string {
	c := *r
	c.Samples = nil
	c.CachePrunes = 0
	data, _ := json.Marshal(c)
	return string(data)
}

// TestDaemonSecondSignalForcesExit3: the first SIGTERM starts a
// graceful drain; a second one mid-drain forces an immediate exit with
// code 3 (satellite 2's daemon half).
func TestDaemonSecondSignalForcesExit3(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons; skipped in -short")
	}
	c := startChild(t,
		"-addr", "localhost:0", "-data", t.TempDir(), "-workers", "1",
		"-drain-timeout", "60s",
		"-fault-rules", slowRules(200))
	// A stalled job keeps the drain busy so the second signal lands
	// mid-drain.
	submit(t, c.base, jobs.Request{Source: progs.Philosophers(3)})
	time.Sleep(300 * time.Millisecond) // let the worker enter the stalled search

	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The drain announcement on stdout orders the two signals.
	saw := make(chan bool, 1)
	go func() {
		for c.out.Scan() {
			if strings.Contains(c.out.Text(), "draining") {
				saw <- true
				return
			}
		}
		saw <- false
	}()
	select {
	case ok := <-saw:
		if !ok {
			t.Fatal("no draining announcement")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no draining announcement in time")
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := c.waitExit(t); code != 3 {
		t.Fatalf("second-signal exit code = %d, want 3", code)
	}
}

// TestDaemonSignalAtReadiness sends SIGTERM the moment the address line
// is read: the drain handler is in place by then, so the daemon drains
// and exits 0 instead of dying of the signal's default action.
func TestDaemonSignalAtReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons; skipped in -short")
	}
	for i := 0; i < 5; i++ {
		c := startChild(t, "-addr", "localhost:0", "-data", t.TempDir(), "-workers", "1")
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		drained := false
		for c.out.Scan() {
			drained = drained || strings.Contains(c.out.Text(), "drained cleanly")
		}
		if code := c.waitExit(t); code != 0 || !drained {
			t.Fatalf("run %d: exit %d, drained cleanly printed: %v; want 0, true", i, code, drained)
		}
	}
}

// TestDaemonUsageErrors: bad flags and stray args exit 2, bad fault
// rules exit 1.
func TestDaemonUsageErrors(t *testing.T) {
	if code := realMain([]string{"-nope"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("unknown flag exit = %d, want 2", code)
	}
	if code := realMain([]string{"stray"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("stray arg exit = %d, want 2", code)
	}
	if code := realMain([]string{"-fault-rules", "{not json"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("bad fault rules exit = %d, want 1", code)
	}
}
