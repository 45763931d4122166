package dist

import (
	"context"
	"fmt"
	"io"
	"os"

	"reclose/internal/cfg"
	"reclose/internal/explore"
	"reclose/internal/faultinject"
	"reclose/internal/statecache"
)

// worker is one worker process's half of the protocol: what the hello
// frame built, kept for every batch the session runs.
type worker struct {
	in  io.Reader
	out io.Writer

	unit *cfg.Unit
	// opt carries the process's one state cache (Options.Cache) when the
	// coordinator asked for state caching: every slice visits it, so a
	// state explored in one batch prunes its revisit in a later one. Its
	// Fault is the plan the hello armed, nil for none.
	opt explore.Options
}

// WorkerMain runs the worker side of the protocol over in/out: read a
// frame, run the batch, write the result, until a shutdown frame (nil)
// or an error. It is the body of `verisoft -worker-mode`; out carries
// nothing but frames. A failure the coordinator can act on — a hello or
// a batch this worker cannot serve — is answered with one error frame
// before it is returned; a broken connection or a frame the protocol
// does not allow here is only returned.
func WorkerMain(in io.Reader, out io.Writer) error {
	w := &worker{in: in, out: out}
	if err := w.handshake(); err != nil {
		return w.refuse(err)
	}
	for {
		m, err := ReadFrame(in)
		if err == io.EOF {
			return fmt.Errorf("dist: coordinator closed the connection without a shutdown frame")
		}
		if err != nil {
			return err
		}
		switch m.Type {
		case MsgBatch:
			res, err := w.runBatch(m)
			if err != nil {
				return w.refuse(fmt.Errorf("dist: batch %d: %w", m.Batch, err))
			}
			if err := WriteFrame(out, res); err != nil {
				return err
			}
		case MsgShutdown:
			return nil
		default:
			return fmt.Errorf("dist: unexpected %q frame from coordinator", m.Type)
		}
	}
}

// refuse tells the coordinator why this worker cannot go on and returns
// err. The write is best effort: the caller exits with err either way.
func (w *worker) refuse(err error) error {
	_ = WriteFrame(w.out, &Message{Type: MsgError, Err: err.Error()})
	return err
}

// handshake consumes the hello frame, builds the search environment —
// resolved options, compiled unit, the process's state cache, fault
// plan — and answers ready.
func (w *worker) handshake() error {
	m, err := ReadFrame(w.in)
	if err != nil {
		return fmt.Errorf("dist: reading hello: %w", err)
	}
	if m.Type != MsgHello || m.Hello == nil {
		return fmt.Errorf("dist: first frame is %q, want hello", m.Type)
	}
	h := m.Hello
	if h.Version != ProtocolVersion {
		return fmt.Errorf("dist: protocol version %d, want %d", h.Version, ProtocolVersion)
	}
	opt, err := h.Options.Resolve()
	if err != nil {
		return fmt.Errorf("dist: options: %w", err)
	}
	unit, err := h.Program.Compile()
	if err != nil {
		return fmt.Errorf("dist: compile: %w", err)
	}
	if h.FaultRules != "" {
		plan, err := faultinject.Decode(h.FaultSeed, []byte(h.FaultRules))
		if err != nil {
			return fmt.Errorf("dist: fault rules: %w", err)
		}
		opt.Fault = plan
	}
	if opt.StateCache {
		opt.Cache = statecache.New(statecache.Config{MaxBytes: opt.MaxCacheBytes})
	}
	w.unit = unit
	w.opt = opt
	return WriteFrame(w.out, &Message{Type: MsgReady, PID: os.Getpid()})
}

// runBatch explores one batch as a bounded ResumeSlice and packs its
// report as the result frame. A fault-plan panic at dist.worker.batch
// or dist.worker.result is deliberately NOT recovered — it crashes the
// process, which is the worker death proc.Slice recovers from.
func (w *worker) runBatch(m *Message) (*Message, error) {
	w.opt.Fault.Fire(faultinject.PointDistWorkerBatch)
	snap, err := explore.DecodeSnapshot(m.Snapshot)
	if err != nil {
		return nil, err
	}
	opt := w.opt
	opt.MaxStates = m.MaxStates
	rep, err := explore.ResumeSlice(context.Background(), w.unit, snap, opt)
	if err != nil {
		return nil, err
	}
	ws := rep.WireSnapshot()
	if ws == nil {
		return nil, fmt.Errorf("slice produced no snapshot")
	}
	data, err := ws.Encode()
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	w.opt.Fault.Fire(faultinject.PointDistWorkerResult)
	return &Message{
		Type:     MsgResult,
		Batch:    m.Batch,
		Snapshot: data,
		Cause:    int(rep.Cause),
		Complete: !rep.Incomplete,
	}, nil
}
