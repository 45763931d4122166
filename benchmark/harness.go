package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

const (
	// buildDir, under the module root, is the scratch directory of
	// `go run ./benchmark`: binaries, inputs, the daemon's data
	// directory, the span files. Not the system's temporary directory:
	// the driver's contract is that a run reads and writes only inside
	// its checkout. The tests use t.TempDir() instead.
	buildDir = ".bench_build"

	itemTimeout = 60 * time.Second // one cold CLI process
	jobTimeout  = 30 * time.Second // one daemon job, submit to terminal
	bootTimeout = 30 * time.Second // daemon start to first 200 /healthz
	pollEvery   = 500 * time.Microsecond
)

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module reclose\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the reclose module (no go.mod with `module reclose` above the working directory)")
		}
		dir = parent
	}
}

// runItem is an item with its input resolved for one run.
type runItem struct {
	item
	Src  string
	File string // the generated source on disk (CLI tools read it)
	Want answer
	tail bool // drawn from the seed, not from the table
}

// env is one set-up: a directory under scratch with the three binaries built
// from the working tree, the workload's inputs written to files, the
// known answers, and — on the end-to-end run of a daemon workload — a
// booted verisoftd.
type env struct {
	dir    string
	bin    map[string]string
	items  []runItem
	daemon *daemon

	dataDirs int // journal directories handed out by newDataDir
}

// setUp builds the binaries of the tree at root and generates the
// inputs, all into a fresh directory under scratch. On error everything
// it created is removed.
func setUp(ctx context.Context, root, scratch string, wl *workload, seed int64) (e *env, err error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return nil, err
	}
	e = &env{dir: dir, bin: make(map[string]string)}
	defer func() {
		if err != nil {
			e.tearDown()
			e = nil
		}
	}()

	// Binaries come from the working tree, never from PATH.
	binDir := filepath.Join(dir, "bin")
	build := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/reclose", "./cmd/verisoft", "./cmd/verisoftd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return e, fmt.Errorf("go build: %v\n%s", err, out)
	}
	for _, tool := range []string{"reclose", "verisoft", "verisoftd"} {
		e.bin[tool] = filepath.Join(binDir, tool)
	}

	e.items, err = resolveItems(wl, seed, filepath.Join(dir, "inputs"))
	return e, err
}

// resolveItems generates every input of the workload (the seeded tail
// included), writes it under dir, and attaches the known answers.
func resolveItems(wl *workload, seed int64, dir string) ([]runItem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	var items []runItem
	add := func(it item, src string, want answer, tail bool) error {
		file := filepath.Join(dir, it.Name+".mc")
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			return err
		}
		items = append(items, runItem{item: it, Src: src, File: file, Want: want, tail: tail})
		return nil
	}
	for _, it := range wl.Items {
		gen, ok := programs[it.Prog]
		if !ok {
			return nil, fmt.Errorf("item %s: unknown program %q", it.Name, it.Prog)
		}
		want, ok := expected[it.Name]
		if it.Want != nil {
			want, ok = answer{verdict: *it.Want}, true
		}
		if !ok {
			return nil, fmt.Errorf("item %s: no known answer in expected.json", it.Name)
		}
		if err := add(it, gen(), want, false); err != nil {
			return nil, err
		}
	}
	if wl.Tail {
		srcs, answers, err := tailPrograms(seed)
		if err != nil {
			return nil, err
		}
		for i, src := range srcs {
			name := fmt.Sprintf("tail-s%d-%d", seed, i)
			it := item{Name: name, Prog: name, Tool: wl.tool(), Search: wl.TailSearch}
			if err := add(it, src, answers[i], true); err != nil {
				return nil, err
			}
		}
	}
	return items, nil
}

// tearDown stops the daemon if one runs and removes the scratch
// directory. It is safe on a partly built env and safe to call twice.
func (e *env) tearDown() {
	if e == nil {
		return
	}
	if e.daemon != nil {
		e.daemon.kill()
		e.daemon = nil
	}
	os.RemoveAll(e.dir)
}

// childResult is one cold process run to completion.
type childResult struct {
	wall   time.Duration // exec to exit
	exit   int
	stdout string
	rssMiB float64
	err    error // could not start, timed out, or was killed
}

// runChild runs one process of a shipped binary under a timeout. The
// child gets its own process group so that a timeout also kills the
// worker processes a -dist-workers run spawns.
func runChild(ctx context.Context, timeout time.Duration, bin string, args ...string) childResult {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr

	forgetOwnPeak()
	start := time.Now()
	err := cmd.Run()
	res := childResult{wall: time.Since(start), stdout: stdout.String()}
	if cmd.ProcessState != nil {
		res.exit = cmd.ProcessState.ExitCode()
		res.rssMiB = maxRSSMiB(cmd.ProcessState)
	}
	var exitErr *exec.ExitError
	switch {
	case ctx.Err() != nil:
		res.err = fmt.Errorf("%s: %w after %s", filepath.Base(bin), ctx.Err(), res.wall.Round(time.Millisecond))
	case err != nil && !errors.As(err, &exitErr):
		res.err = err
	case res.exit == 1 || res.exit == 2 || res.exit < 0:
		// The CLIs exit 1 on an error and 2 on bad usage; 0, 3 and 4 are
		// verdicts.
		res.err = fmt.Errorf("%s exited %d: %s", filepath.Base(bin), res.exit, strings.TrimSpace(stderr.String()))
	}
	return res
}

// forgetOwnPeak returns this process's free memory to the system and
// resets its peak-RSS mark. A child is started with vfork, and at exec
// the kernel folds the peak of the address space it leaves — this
// process's — into the child's Rusage.Maxrss: unreset, every child
// would read at least this harness's own peak (15–45 MiB; a verisoft
// child's own is 8–14 MiB). Reset, the floor is ≈3 MiB.
func forgetOwnPeak() {
	debug.FreeOSMemory()
	// Best effort: where the file is missing the floor stays, and
	// peak_rss_mb of small children reads the harness.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func maxRSSMiB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// daemon is a running verisoftd on an ephemeral loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // cmd.Wait's result, valid once done is closed
}

// bootDaemon starts verisoftd on a fresh data directory, scrapes the
// port from its "listening on" line and waits for the first 200 from
// /healthz.
func bootDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "localhost:0", "-workers", fmt.Sprint(clients), "-data", dataDir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 1) // the one line the boot waits for
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				lines <- strings.Fields(rest)[0]
				sent = true
			}
		}
		d.err = cmd.Wait()
		close(d.done)
	}()

	deadline := time.After(bootTimeout)
	select {
	case d.base = <-lines:
	case <-d.done:
		return nil, fmt.Errorf("verisoftd exited during boot: %v", d.err)
	case <-deadline:
		d.kill()
		return nil, errors.New("verisoftd printed no listening line")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-time.After(time.Millisecond):
		case <-d.done:
			return nil, fmt.Errorf("verisoftd exited during boot: %v", d.err)
		case <-deadline:
			d.kill()
			return nil, errors.New("verisoftd never answered 200 on /healthz")
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		}
	}
}

// peakRSSMiB reads the running daemon's peak resident set so far (the
// kernel's VmHWM, the figure Rusage.Maxrss reports at exit).
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kib float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kib); err == nil {
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in the daemon's /proc status")
}

// drain asks the daemon to shut down gracefully and waits for it.
func (d *daemon) drain() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.done:
	case <-time.After(bootTimeout):
		d.kill()
		return errors.New("verisoftd did not drain")
	}
	if d.err != nil {
		return fmt.Errorf("verisoftd: %w", d.err)
	}
	return nil
}

// kill stops the daemon at once and waits until it has ended.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}
