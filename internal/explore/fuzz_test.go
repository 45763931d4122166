package explore

import (
	"bytes"
	"reflect"
	"regexp"
	"testing"

	"reclose/internal/core"
	"reclose/internal/progs"
)

// FuzzCheckpointDecode hardens the -resume path: whatever bytes a
// checkpoint file contains — corrupted, truncated, version-skewed, or
// adversarially mutated — decoding and resuming must either succeed or
// fail with a clean error. A panic anywhere (decode, structural
// validation, prefix replay through the interpreter) is a bug: a stale
// checkpoint from yesterday's program must not crash today's run. A
// snapshot that restores must also survive its own encoding: re-encoded,
// it decodes to a snapshot equal to itself.
//
// Seeds are real encoded checkpoints from a truncated search plus
// targeted mutations of them (cut in half, out-of-range decision
// values, out-of-range option indices), so the fuzzer starts deep
// inside the interesting state space instead of at "not JSON".
func FuzzCheckpointDecode(f *testing.F) {
	closed, _, err := core.CloseSource(progs.Philosophers(3))
	if err != nil {
		f.Fatalf("CloseSource: %v", err)
	}

	// Real checkpoints: a state-budget cut and a mid-search periodic one.
	rep, err := Explore(closed, Options{MaxStates: 40})
	if err != nil {
		f.Fatalf("Explore: %v", err)
	}
	snap := rep.Snapshot()
	if snap == nil {
		f.Fatal("truncated search produced no snapshot")
	}
	real1, err := snap.Encode()
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	var periodic []byte
	_, err = Explore(closed, Options{
		CheckpointEveryPaths: 5,
		Checkpoint: func(s *Snapshot) {
			if data, err := s.Encode(); err == nil {
				periodic = data
			}
		},
	})
	if err != nil {
		f.Fatalf("Explore (periodic checkpoint): %v", err)
	}

	// A dynamic-POR checkpoint: its stack-continuation unit carries the
	// serialized DFS stack — frames with backtrack sets, enabled sets,
	// sleep maps, and seal flags — which the strict-mode seeds above
	// never exercise.
	var dynamic []byte
	_, err = Explore(closed, Options{
		POR:                  PORDynamic,
		CheckpointEveryPaths: 3,
		Checkpoint: func(s *Snapshot) {
			if dynamic != nil {
				return
			}
			if data, err := s.Encode(); err == nil && bytes.Contains(data, []byte(`"stack"`)) {
				dynamic = data
			}
		},
	})
	if err != nil {
		f.Fatalf("Explore (dynamic checkpoint): %v", err)
	}
	if dynamic == nil {
		f.Fatal("dynamic-POR search checkpointed no stack-bearing snapshot")
	}

	f.Add(real1)
	if periodic != nil {
		f.Add(periodic)
	}
	f.Add(dynamic)
	// Mutations targeting the stack-frame fields.
	f.Add(dynamic[:len(dynamic)*3/4])                                                     // truncated mid-stack
	f.Add(bytes.ReplaceAll(dynamic, []byte(`"cursor": 1`), []byte(`"cursor": 99`)))       // cursor past options
	f.Add(bytes.ReplaceAll(dynamic, []byte(`"cursor": 1`), []byte(`"cursor": -2`)))       // negative cursor
	f.Add(bytes.ReplaceAll(dynamic, []byte(`"backtrack"`), []byte(`"statics"`)))          // duplicate keys
	f.Add(bytes.ReplaceAll(dynamic, []byte(`"dynamic": true`), []byte(`"sealed": true`))) // seal-state skew
	f.Add(bytes.ReplaceAll(dynamic, []byte(`"objs"`), []byte(`"en_objs"`)))               // objs/enabled length skew
	f.Add(bytes.ReplaceAll(dynamic, []byte(`"stack"`), []byte(`"stack!"`)))               // stack dropped entirely
	// Structural mutations of the real checkpoint.
	f.Add(real1[:len(real1)/2])                                                        // truncated mid-object
	f.Add(bytes.ReplaceAll(real1, []byte(`"version": 1`), []byte(`"version": 99`)))    // version skew
	f.Add(bytes.ReplaceAll(real1, []byte(`"value": 0`), []byte(`"value": 9999`)))      // out-of-range decisions
	f.Add(bytes.ReplaceAll(real1, []byte(`"value": 0`), []byte(`"value": -7`)))        // negative decisions
	f.Add(bytes.ReplaceAll(real1, []byte(`"from": 1`), []byte(`"from": 77`)))          // option index out of range
	f.Add(bytes.ReplaceAll(real1, []byte(`"processes": 3`), []byte(`"processes": 8`))) // program mismatch
	f.Add(bytes.ReplaceAll(real1, []byte(`"coverage"`), []byte(`"coverage!"`)))
	f.Add(regexp.MustCompile(`"states": \d+`).ReplaceAll(real1, []byte(`"states": -100000`))) // negative counter
	// Names and indices the program does not have: the engine indexes
	// arrays with both, so the decoder must refuse them.
	f.Add(bytes.ReplaceAll(real1, []byte(`"fork1"`), []byte(`"spoon1"`)))                     // undeclared object in objs and sleep
	f.Add(bytes.ReplaceAll(real1, []byte(`"1": "fork1"`), []byte(`"99": "fork1"`)))           // sleep key past the processes
	f.Add(regexp.MustCompile(`("enabled": \[\s*)0`).ReplaceAll(dynamic, []byte("${1}-1")))    // negative enabled process
	f.Add(regexp.MustCompile(`("backtrack": \[\s*)\d`).ReplaceAll(dynamic, []byte("${1}64"))) // backtrack point past the processes
	f.Add(bytes.ReplaceAll(dynamic, []byte(`"fork0"`), []byte(`""`)))                         // an object operation turned objectless
	// Minimal hand-built shapes.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"processes":3,"site_bits":0,"units":[{"from":-1,"options":[0]}]}`))
	f.Add([]byte(`{"version":1,"units":[{"sleep":{"notanumber":"x"}}]}`))
	f.Add([]byte(`not json at all`))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return // clean rejection
		}
		if _, err := restoreSnapshot(closed, snap); err != nil {
			return // clean structural rejection
		}
		again, err := snap.Encode()
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		back, err := DecodeSnapshot(again)
		if err != nil {
			t.Fatalf("a restored snapshot re-encodes to bytes that do not decode: %v\n%s", err, again)
		}
		// omitempty writes an empty list or map as none at all.
		emptyToNil(reflect.ValueOf(snap))
		emptyToNil(reflect.ValueOf(back))
		if !reflect.DeepEqual(back, snap) {
			t.Fatalf("a restored snapshot does not survive its encoding:\n got %+v\nwant %+v", back, snap)
		}
		// Structurally valid: the search must run to completion. Decision
		// prefixes that are semantically stale (wrong toss outcomes, moves
		// that are no longer enabled) must surface as isolated
		// internal-error incidents in the report, never as a panic or a
		// hang. The bounds keep pathological counter values from turning
		// a fuzz exec into a long search.
		if _, err := Resume(closed, snap, Options{MaxStates: 500, MaxDepth: 200}); err != nil {
			return
		}
	})
}

// emptyToNil sets every empty slice and map reachable from v to nil.
func emptyToNil(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			emptyToNil(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				emptyToNil(v.Field(i))
			}
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
		} else if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				emptyToNil(v.Index(i))
			}
		}
	}
}
