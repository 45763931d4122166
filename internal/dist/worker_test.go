package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/explore"
	"reclose/internal/interp"
	"reclose/internal/progs"
)

// session is WorkerMain running in this process over two pipes, with
// the test playing the coordinator.
type session struct {
	t    *testing.T
	to   *io.PipeWriter // coordinator → worker
	from *io.PipeReader // worker → coordinator
	done chan error     // WorkerMain's return value
}

func startWorker(t *testing.T) *session {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	s := &session{t: t, to: inW, from: outR, done: make(chan error, 1)}
	go func() {
		err := WorkerMain(inR, outW)
		// A returned worker reads and writes nothing more: the test's
		// next write fails and its next read is EOF, neither blocks.
		inR.Close()
		outW.Close()
		s.done <- err
	}()
	t.Cleanup(func() {
		inW.Close()
		outR.Close()
	})
	return s
}

func (s *session) send(m *Message) {
	s.t.Helper()
	if err := WriteFrame(s.to, m); err != nil {
		s.t.Fatalf("sending %s frame: %v", m.Type, err)
	}
}

func (s *session) recv(wantType string) *Message {
	s.t.Helper()
	m, err := ReadFrame(s.from)
	if err != nil {
		s.t.Fatalf("reading a %s frame: %v", wantType, err)
	}
	if m.Type != wantType {
		s.t.Fatalf("worker sent a %q frame (%+v), want %q", m.Type, m, wantType)
	}
	return m
}

// end waits for WorkerMain to return and checks that it wrote nothing
// after the frames the test has read.
func (s *session) end() error {
	s.t.Helper()
	if m, err := ReadFrame(s.from); err != io.EOF {
		s.t.Errorf("worker wrote an extra frame before returning: %+v (err %v)", m, err)
	}
	return <-s.done
}

func helloFrame(src string, opt explore.Options) *Message {
	return &Message{Type: MsgHello, Hello: &Hello{
		Version: ProtocolVersion,
		Program: Program{Source: src},
		Options: opt,
	}}
}

// rootBatch is the first batch of a search: the root unit, no counters.
func rootBatch(t *testing.T, src string, id uint64) (*Message, *cfg.Unit) {
	t.Helper()
	unit, err := (&Program{Source: src}).Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data := fmt.Sprintf(`{"version":%d,"processes":%d,"site_bits":%d,"units":[{"root":true}]}`,
		explore.SnapshotVersion, len(unit.Processes), interp.NumberUnit(unit).SiteBits)
	return &Message{Type: MsgBatch, Batch: id, Snapshot: json.RawMessage(data)}, unit
}

func mustDecodeResult(t *testing.T, m *Message) *explore.Snapshot {
	t.Helper()
	snap, err := explore.DecodeSnapshot(m.Snapshot)
	if err != nil {
		t.Fatalf("result snapshot: %v", err)
	}
	return snap
}

// TestWorkerMainSession drives one whole session in-process: hello →
// ready → batch → result → shutdown. The result merges to the
// sequential search's counters and WorkerMain returns nil.
func TestWorkerMainSession(t *testing.T) {
	src := progs.Philosophers(3)
	opt := explore.Options{MaxIncidents: 1 << 20}
	s := startWorker(t)
	s.send(helloFrame(src, opt))
	if m := s.recv(MsgReady); m.PID == 0 {
		t.Errorf("ready frame carries no pid")
	}
	batch, unit := rootBatch(t, src, 7)
	s.send(batch)
	res := s.recv(MsgResult)
	if res.Batch != 7 || !res.Complete {
		t.Errorf("result frame: batch %d complete=%v, want batch 7 complete", res.Batch, res.Complete)
	}
	// The result leaves no unit over: resumed, it is the whole report.
	rep, err := explore.Resume(unit, mustDecodeResult(t, res), opt)
	if err != nil {
		t.Fatalf("the result does not restore: %v", err)
	}
	if got, want := distDigest(rep), distDigest(mustOracle(t, Program{Source: src}, opt)); got != want {
		t.Errorf("session result diverged from the in-process search:\n got:\n%s\nwant:\n%s", got, want)
	}
	s.send(&Message{Type: MsgShutdown})
	if err := s.end(); err != nil {
		t.Errorf("WorkerMain returned %v after shutdown, want nil", err)
	}
}

// TestWorkerMainRefusals pins what a worker does with work it cannot
// serve: exactly one error frame carrying the error WorkerMain returns.
func TestWorkerMainRefusals(t *testing.T) {
	src := progs.Philosophers(3)
	good := helloFrame(src, explore.Options{})
	oldVersion := helloFrame(src, explore.Options{})
	oldVersion.Hello.Version = ProtocolVersion - 1
	// The tier deleted in PR 17, spelled the only way it still can be.
	badEngine := rawFrame(fmt.Sprintf(`{"type":"hello","hello":{"version":%d,"program":{"source":"x"},"options":{"engine":"slots"}}}`, ProtocolVersion))
	cases := []struct {
		name   string
		raw    []byte     // written before frames
		frames []*Message // ready is read after a good hello
		want   string     // substring of the error
	}{
		{"wrong-protocol-version", nil, []*Message{oldVersion}, "protocol version"},
		{"first-frame-not-hello", nil, []*Message{{Type: MsgBatch, Batch: 1}}, `first frame is "batch"`},
		{"undecodable-options", badEngine, nil, `"slots"`},
		{"undecodable-batch-snapshot", nil, []*Message{good,
			{Type: MsgBatch, Batch: 3, Snapshot: json.RawMessage(`{"version":-1}`)}}, "batch 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startWorker(t)
			if tc.raw != nil {
				if _, err := s.to.Write(tc.raw); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range tc.frames {
				s.send(m)
				if m == good {
					s.recv(MsgReady)
				}
			}
			refusal := s.recv(MsgError)
			err := s.end()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("WorkerMain returned %v, want an error naming %s", err, tc.want)
			}
			if refusal.Err != err.Error() {
				t.Errorf("error frame says %q, WorkerMain returned %q", refusal.Err, err)
			}
		})
	}
}

// TestWorkerMainBrokenSession covers the endings with nobody to tell: a
// frame the protocol does not allow mid-session, and a coordinator that
// goes away without a shutdown frame. Both return an error and write
// nothing.
func TestWorkerMainBrokenSession(t *testing.T) {
	src := progs.Philosophers(3)
	t.Run("unexpected-frame", func(t *testing.T) {
		s := startWorker(t)
		s.send(helloFrame(src, explore.Options{}))
		s.recv(MsgReady)
		s.send(&Message{Type: MsgReady, PID: 1})
		if err := s.end(); err == nil || !strings.Contains(err.Error(), `unexpected "ready" frame`) {
			t.Errorf("WorkerMain returned %v, want an unexpected-frame error", err)
		}
	})
	t.Run("eof-without-shutdown", func(t *testing.T) {
		s := startWorker(t)
		s.send(helloFrame(src, explore.Options{}))
		s.recv(MsgReady)
		s.to.Close()
		if err := s.end(); err == nil || !strings.Contains(err.Error(), "without a shutdown frame") {
			t.Errorf("WorkerMain returned %v, want a closed-connection error", err)
		}
	})
}

// TestWorkerMainSharesCacheAcrossBatches hands the root unit to one
// worker twice. The process keeps one state cache for the session, so
// the second slice finds the root already visited and prunes there; a
// cache per slice would explore it all again.
func TestWorkerMainSharesCacheAcrossBatches(t *testing.T) {
	src := progs.Philosophers(3)
	opt := explore.Options{POR: explore.POROff, NoSleep: true, StateCache: true, MaxIncidents: 1 << 20}
	s := startWorker(t)
	s.send(helloFrame(src, opt))
	s.recv(MsgReady)

	batch, _ := rootBatch(t, src, 1)
	s.send(batch)
	first := mustDecodeResult(t, s.recv(MsgResult)).Counters
	if want := mustOracle(t, Program{Source: src}, opt); first.States != want.States || first.CachePrunes != want.CachePrunes {
		t.Errorf("first slice: states=%d cache-prunes=%d, the sequential cached search has %d / %d",
			first.States, first.CachePrunes, want.States, want.CachePrunes)
	}
	batch.Batch = 2
	s.send(batch)
	second := mustDecodeResult(t, s.recv(MsgResult)).Counters
	if second.CachePrunes == 0 || second.States >= first.States {
		t.Errorf("second slice: states=%d cache-prunes=%d after a first slice of %d states; the cache did not outlive the batch",
			second.States, second.CachePrunes, first.States)
	}
	s.send(&Message{Type: MsgShutdown})
	if err := s.end(); err != nil {
		t.Errorf("WorkerMain returned %v after shutdown, want nil", err)
	}
}
