package explore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reclose/internal/interp"
	"reclose/internal/progs"
	"reclose/internal/randprog"
)

// replayCases are programs whose every search ends in incidents that
// depend on what the machine computed on the way: values stored through
// pointers into a caller's and into another process's frame, arrays
// copied through a channel and a shared variable, and a trap or a
// divergence partway down a path.
var replayCases = map[string]string{
	"pointer-into-caller-frame": `
chan out[8];
proc bump(p, n) {
    *p = *p + n;
    send(out, *p);
    if (n > 0) {
        bump(p, n - 1);
    }
}
proc main() {
    var x = 7;
    bump(&x, 2);
    send(out, x);
    VS_assert(x == 7);
}
process main;
process main;
`,
	"pointer-in-channel": `
chan c[1];
chan done[1];
proc owner() {
    var x = 5;
    var ack;
    send(c, &x);
    recv(done, ack);
    VS_assert(x == ack - 1);
}
proc user() {
    var p;
    recv(c, p);
    *p = *p + 1;
    send(done, *p);
}
process owner;
process user;
`,
	"arrays": `
chan c[2];
shared g = 0;
proc main() {
    var a[3];
    var b[2];
    var q = &a[1];
    *q = 4;
    send(c, a);
    a[0] = 9;
    recv(c, b);
    vwrite(g, b);
    b[1] = 5;
    vread(g, a);
    VS_assert(a[1] == 5);
}
process main;
`,
	"trap-oob": `
chan out[4];
proc main() {
    var a[2];
    var i;
    for (i = 0; i < 3; i = i + 1) {
        send(out, i);
        a[i] = i;
    }
}
process main;
process main;
`,
	"trap-deref": `
chan out[2];
proc main() {
    var x = 1;
    send(out, x);
    var y = *x;
}
process main;
`,
	"trap-div": `
chan out[2];
proc main() {
    var z = 0;
    send(out, z);
    var x = 1 / z;
}
process main;
`,
	"divergence": `
chan out[2];
proc main() {
    var x = 0;
    send(out, x);
    while (true) {
        x = x + 1;
    }
}
process main;
`,
}

// TestParallelIncidentsReplay checks that every incident sample a
// parallel search records carries a decision sequence that replays
// deterministically to the same kind of leaf with the same message and,
// event for event, the same trace: a witness is re-executed — by
// verisoft -replay, by a resumed checkpoint rebuilding its samples'
// traces — on the machine that found it. The table is the lattice's
// programs plus replayCases plus thirty random programs (which replace
// the lattice's three of the same names).
func TestParallelIncidentsReplay(t *testing.T) {
	cases := map[string]string{}
	for _, p := range programs {
		cases[p.name] = p.src
	}
	for name, src := range replayCases {
		cases[name] = src
	}
	const nRand = 30
	for seed := int64(0); seed < nRand; seed++ {
		cases[fmt.Sprintf("rand-%d", seed)] = randprog.Generate(rand.New(rand.NewSource(seed)), randprog.Config{Helpers: 1})
	}
	randSamples := 0
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			closed := mustClose(t, src)
			// The bounds only cut the largest random programs; a cut
			// search's samples replay like any other's.
			rep, err := Explore(closed, Options{Workers: 3, MaxDepth: 40, MaxStates: 500})
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			if _, ok := replayCases[name]; ok && len(rep.Samples) == 0 {
				t.Fatalf("the search recorded no incident: %s", rep)
			}
			if strings.HasPrefix(name, "rand-") {
				randSamples += len(rep.Samples)
			}
			for i, in := range rep.Samples {
				var trace []interp.Event
				sys, out, err := Replay(closed, in.Decisions, func(st ReplayStep) {
					if st.HasEvent {
						trace = append(trace, st.Event)
					}
				})
				if err != nil {
					t.Fatalf("sample %d (%s): Replay: %v", i, in.Kind, err)
				}
				if len(trace) != len(in.Trace) {
					t.Fatalf("sample %d (%s): replay produced %d events, recorded %d\nreplay:   %v\nrecorded: %v",
						i, in.Kind, len(trace), len(in.Trace), trace, in.Trace)
				}
				for k, ev := range trace {
					if want := in.Trace[k]; ev.String() != want.String() || ev.Stub != want.Stub {
						t.Errorf("sample %d (%s): event %d replays as %s (stub=%v), recorded %s (stub=%v)",
							i, in.Kind, k, ev, ev.Stub, want, want.Stub)
					}
				}
				switch in.Kind {
				case LeafDeadlock:
					if out != nil {
						t.Errorf("sample %d: deadlock replay ended with outcome %v", i, out)
					} else if !Deadlocked(sys) {
						t.Errorf("sample %d: deadlock replay did not reach a deadlocked state", i)
					}
				case LeafViolation, LeafTrap, LeafDivergence:
					if out == nil {
						t.Fatalf("sample %d: %s replay produced no outcome", i, in.Kind)
					}
					wantKind := map[LeafKind]interp.OutcomeKind{
						LeafViolation:  interp.OutViolation,
						LeafTrap:       interp.OutTrap,
						LeafDivergence: interp.OutDivergence,
					}[in.Kind]
					if out.Kind != wantKind {
						t.Errorf("sample %d: replay outcome kind = %v, recorded leaf %s", i, out.Kind, in.Kind)
					}
					if out.Msg != in.Msg {
						t.Errorf("sample %d: replay message = %q, recorded %q", i, out.Msg, in.Msg)
					}
				default:
					t.Errorf("sample %d has uninteresting kind %s", i, in.Kind)
				}
			}
		})
	}
	if randSamples == 0 {
		t.Errorf("%d random programs produced no incident to replay", nRand)
	}
}

// TestParallelTruncation checks that MaxStates stops a parallel search
// and marks the report truncated (the exact counts are
// timing-dependent and deliberately not asserted).
func TestParallelTruncation(t *testing.T) {
	closed := mustClose(t, progs.Philosophers(3))
	rep, err := Explore(closed, Options{Workers: 2, MaxStates: 50})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if !rep.Incomplete {
		t.Errorf("report not marked truncated: %s", rep)
	}
	if rep.States < 50 {
		t.Errorf("states = %d, want >= MaxStates", rep.States)
	}
}
