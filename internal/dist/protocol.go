// Package dist runs a state-space search on worker OS processes. The
// search is explore's one driver with a slice worker per process
// (explore.Distribute); this package is the transport under it: a
// length-prefixed JSON protocol on the worker's stdin/stdout, the
// process side of it (WorkerMain: a loop over explore.ResumeSlice), and Slice,
// which ships one batch of work units to a process and brings back the
// slice's report snapshot, or kills and respawns the process. Final
// counters and incident multisets match the in-process search at any
// worker count. A state cache, when the options ask for one, is private
// to each worker process and lives as long as the process: nothing about
// it crosses the wire, and a cached run at more than one worker keeps the
// incident set, not the counters. See DESIGN.md §15.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"reclose/internal/explore"
)

// ProtocolVersion is carried in every hello; a worker rejects any
// other version, so a coordinator never drives a worker built from a
// different wire format. Version 3 ships the options as explore.Options'
// own JSON form.
const ProtocolVersion = 3

// MaxFrame bounds one frame's payload (64 MiB). A length prefix past
// the bound is rejected before any allocation, so a corrupt or
// hostile peer cannot make the reader allocate unbounded memory.
const MaxFrame = 64 << 20

// Message types.
const (
	// MsgHello is the coordinator's first frame to a fresh worker:
	// program, options, fault plan.
	MsgHello = "hello"
	// MsgReady is the worker's reply to hello: compiled and waiting.
	MsgReady = "ready"
	// MsgBatch hands a batch of work units to a worker.
	MsgBatch = "batch"
	// MsgResult returns a finished slice: the report snapshot (its
	// Units are the batch's unexplored remainder) plus cause/complete.
	MsgResult = "result"
	// MsgShutdown ends the session: the worker exits 0.
	MsgShutdown = "shutdown"
	// MsgError reports a worker refusing its work (compile error,
	// malformed batch); the coordinator fails the run with the message.
	MsgError = "error"
)

// Hello is the session-opening payload: everything a worker process
// needs to reconstruct the search environment byte-compatibly.
type Hello struct {
	Version int     `json:"version"`
	Program Program `json:"program"`
	// Options cross as their JSON form: what a slice honours. An unknown
	// mode name fails the frame's decode; the worker Resolves the rest.
	Options explore.Options `json:"options"`
	// FaultSeed/FaultRules arm a faultinject.Plan inside the worker
	// (dist.worker.* points); empty rules mean no plan.
	FaultSeed  int64  `json:"fault_seed,omitempty"`
	FaultRules string `json:"fault_rules,omitempty"`
}

// Message is the single frame envelope; Type selects which fields are
// meaningful. Snapshots travel as raw JSON so the codec layer never
// re-encodes them (and the fuzz target exercises the nesting).
type Message struct {
	Type  string `json:"type"`
	Hello *Hello `json:"hello,omitempty"`

	// MsgReady.
	PID int `json:"pid,omitempty"`

	// MsgBatch / MsgResult: batch number and snapshot. A batch snapshot
	// carries zero counters plus the leased units and MaxStates is the
	// slice's state budget; a result snapshot carries the slice's
	// counter deltas plus leftover units, with Cause/Complete saying
	// how the slice stopped.
	Batch     uint64          `json:"batch,omitempty"`
	Snapshot  json.RawMessage `json:"snapshot,omitempty"`
	MaxStates int64           `json:"max_states,omitempty"`
	Cause     int             `json:"cause,omitempty"`
	Complete  bool            `json:"complete,omitempty"`

	// MsgError.
	Err string `json:"err,omitempty"`
}

// validTypes gates decoding: an unknown type is a protocol error, not
// a silently-ignored frame.
var validTypes = map[string]bool{
	MsgHello: true, MsgReady: true, MsgBatch: true, MsgResult: true,
	MsgShutdown: true, MsgError: true,
}

// WriteFrame writes one message as a 4-byte big-endian length prefix
// followed by the JSON payload.
func WriteFrame(w io.Writer, m *Message) error {
	// No HTML escaping: it would rewrite '&', '<' and '>' inside the raw
	// Snapshot, so a frame would not survive a decode and re-encode
	// byte for byte.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("dist: encode %s frame: %w", m.Type, err)
	}
	data := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
	if len(data) > MaxFrame {
		return fmt.Errorf("dist: %s frame is %d bytes, limit %d", m.Type, len(data), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadFrame reads and validates one message. Every malformed input —
// truncated header or payload, oversized or zero length, broken JSON,
// unknown type — returns an error; ReadFrame never panics. io.EOF is
// returned bare only at a clean frame boundary, so callers can tell a
// closed peer from a torn frame.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("dist: truncated frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("dist: zero-length frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("dist: truncated frame payload: %w", err)
	}
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dist: malformed frame: %w", err)
	}
	if !validTypes[m.Type] {
		return nil, fmt.Errorf("dist: unknown frame type %q", m.Type)
	}
	return &m, nil
}
