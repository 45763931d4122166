package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"reclose/internal/explore"
	"reclose/internal/interp"
)

// sampleMessages is one frame of every protocol type with realistic
// payloads — the round-trip suite and the fuzz seed corpus share it.
func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgHello, Hello: &Hello{
			Version: ProtocolVersion,
			Program: Program{Source: "process p() { halt; }", Close: "auto", NaiveDomain: 4},
			Options: explore.Options{
				Engine: interp.EngineBytecode, MaxDepth: 500, POR: explore.PORDynamic, StateCache: true, CacheShards: 8,
				MaxIncidents: 1 << 20,
			},
			FaultSeed:  42,
			FaultRules: `[{"point":"dist.worker.batch","action":"panic","count":1}]`,
		}},
		{Type: MsgReady, PID: 12345},
		{Type: MsgBatch, Batch: 7, MaxStates: 4096,
			Snapshot: json.RawMessage(`{"version":3,"processes":2,"site_bits":6,"units":[{"root":true}]}`)},
		{Type: MsgResult, Batch: 7, Complete: true, Cause: int(explore.StopMaxStates),
			Snapshot: json.RawMessage(`{"version":3,"processes":2,"site_bits":6,"states":12}`)},
		{Type: MsgShutdown},
		{Type: MsgError, Err: "dist: batch 7: malformed snapshot"},
	}
}

// TestFrameRoundTrip checks every message type survives the wire, and
// that frames are self-delimiting (many on one stream decode in
// order, then clean EOF).
func TestFrameRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame(%s): %v", m.Type, err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range msgs {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d (%s) changed across the wire:\n got %+v\nwant %+v", i, want.Type, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Errorf("stream end: got %v, want io.EOF", err)
	}
}

// v1CacheFrames are well-formed protocol-version-1 frames of the two
// types version 2 dropped with the cross-process cache lookups. A
// version-2 reader must refuse them as unknown types, not skip them: a
// version-1 peer would be waiting for the answer.
var v1CacheFrames = []string{
	`{"type":"cache_query","seq":99,"hash":244837814094590,"key":"AQID/w==","depth":17}`,
	`{"type":"cache_reply","seq":99,"pruned":true}`,
}

// rawFrame length-prefixes a payload as it stands.
func rawFrame(payload string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestFrameErrors pins the decode failure modes the fuzz target
// explores: every malformed input is an error, never a panic, and a
// partial frame is not a clean EOF (the coordinator must tell a
// mid-frame crash from an orderly close).
func TestFrameErrors(t *testing.T) {
	prefix := func(n uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n)
		return b[:]
	}
	cases := map[string][]byte{
		"zero-length":     prefix(0),
		"oversized":       prefix(MaxFrame + 1),
		"truncated-body":  append(prefix(100), []byte(`{"type":"ready"`)...),
		"short-prefix":    {0, 0},
		"malformed-json":  append(prefix(9), []byte(`{"type":!`)...),
		"unknown-type":    append(prefix(17), []byte(`{"type":"bogus!"}`)...),
		"not-json-object": append(prefix(4), []byte(`[1ic`)...),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			m, err := ReadFrame(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("decoded %+v from malformed input", m)
			}
			if err == io.EOF {
				t.Fatalf("malformed input reported clean EOF")
			}
		})
	}
	for _, payload := range v1CacheFrames {
		_, err := ReadFrame(bytes.NewReader(rawFrame(payload)))
		if err == nil || !strings.Contains(err.Error(), "unknown frame type") {
			t.Errorf("version-1 frame %s: got %v, want an unknown-frame-type error", payload, err)
		}
	}
	big := &Message{Type: MsgError, Err: strings.Repeat("x", MaxFrame)}
	if err := WriteFrame(io.Discard, big); err == nil {
		t.Errorf("WriteFrame accepted an oversize frame")
	}
}

// FuzzDistProtocol fuzzes the wire decoder with arbitrary bytes: it
// must never panic and never mis-decode — any frame it accepts must
// re-encode and decode to the same message.
func FuzzDistProtocol(f *testing.F) {
	for _, m := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Malformed seeds: truncations and a lying length prefix.
	var buf bytes.Buffer
	WriteFrame(&buf, &Message{Type: MsgReady, PID: 1})
	whole := buf.Bytes()
	f.Add(whole[:2])
	f.Add(whole[:len(whole)-3])
	lying := append([]byte(nil), whole...)
	binary.BigEndian.PutUint32(lying[:4], MaxFrame+1)
	f.Add(lying)
	// Raw snapshots a peer may send that re-encoding must not rewrite:
	// the characters HTML escaping would touch (the first is the input
	// this target once found), and insignificant whitespace.
	for _, payload := range []string{
		`{"type":"result","snapshot":{"&000000":0,"<":">\u2028"}}`,
		`{"type":"result","snapshot":{ "units" : [ ] }}`,
	} {
		f.Add(rawFrame(payload))
	}
	// Frames only a version-1 peer sends: refused, like any unknown type.
	for _, payload := range v1CacheFrames {
		f.Add(rawFrame(payload))
	}
	// Hellos spelling every mode name between them, and one whose mode
	// name the decoder must refuse rather than default.
	for _, opt := range everyModeOptions() {
		var hello bytes.Buffer
		if err := WriteFrame(&hello, &Message{Type: MsgHello, Hello: &Hello{Version: ProtocolVersion, Options: opt}}); err != nil {
			f.Fatal(err)
		}
		f.Add(hello.Bytes())
	}
	f.Add(rawFrame(`{"type":"hello","hello":{"version":3,"options":{"por":"dynamc"}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v returned alongside a message", err)
			}
			return
		}
		if strings.HasPrefix(m.Type, "cache_") {
			t.Fatalf("ReadFrame accepted a version-1 %q frame", m.Type)
		}
		if m.Snapshot != nil {
			// A raw snapshot travels compacted; its whitespace is the one
			// thing a re-encode may change.
			var c bytes.Buffer
			if err := json.Compact(&c, m.Snapshot); err != nil {
				t.Fatalf("accepted frame carries a malformed snapshot: %v", err)
			}
			m.Snapshot = c.Bytes()
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, m); err != nil {
			t.Fatalf("accepted frame did not re-encode: %v", err)
		}
		back, err := ReadFrame(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded frame did not decode: %v", err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("frame unstable across re-encode:\n first %+v\n again %+v", m, back)
		}
	})
}

// everyModeOptions are option sets that spell every engine, POR mode
// and stop cause Options.Stop takes between them, with every
// other wire field set somewhere.
func everyModeOptions() []explore.Options {
	return []explore.Options{
		{},
		{Engine: interp.EngineRef, MaxDepth: 123, NoSleep: true, POR: explore.PORDynamic, Stop: explore.StopViolation},
		{POR: explore.POROff, MaxIncidents: 7, Stop: explore.StopIncident},
		{StateCache: true, CacheShards: 8, MaxCacheBytes: 1 << 20, Liveness: true},
		{SnapshotSpill: true, SpillDepth: 5, Workers: 3},
	}
}

// TestOptionsRoundTrip checks the wire form both processes must agree
// on — explore.Options' own JSON — and that a mode name nobody knows is
// refused, not read as the default.
func TestOptionsRoundTrip(t *testing.T) {
	for i, opt := range everyModeOptions() {
		data, err := json.Marshal(opt)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var back explore.Options
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, data, err)
		}
		if !reflect.DeepEqual(back, opt) {
			t.Errorf("case %d: options drifted across the wire:\n sent %+v\n back %+v", i, opt, back)
		}
	}
	for _, doc := range []string{
		`{"engine":"valves"}`, `{"engine":"slots"}`, // never one; the tier deleted in PR 17
		`{"por":"dynamc"}`, `{"stop":"first"}`,
	} {
		var opt explore.Options
		if err := json.Unmarshal([]byte(doc), &opt); err == nil {
			t.Errorf("decoding %s succeeded: %+v", doc, opt)
		}
	}
}
