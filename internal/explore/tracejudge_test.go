package explore

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"reclose/internal/cfg"
	"reclose/internal/interp"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// The trace judge. A witness is its decisions: a search hands OnLeaf
// each path's decisions and keeps a sample's, and a trace is what they
// replay to (replay.go). Every leaf's trace, as the prefix-sharing
// replayer rebuilds it from what OnLeaf was handed, and every sample's, as
// the search rebuilt it, must be the reference interpreter's replay of the
// same decisions; and with every incident sampled, the incident leaves'
// decisions are, kind by kind, the samples' — the same multiset, whatever
// the workers, snapshots, engine, reduction or checkpoint. An
// internal-error leaf reaches no OnLeaf; its sample is held to the
// reference replay alone.

// tossIncidents reaches each kind of incident through a toss outcome: a
// deadlock at 0, a trap at 1, a violation at 2 and a divergence at 3, so
// a rebuild that replays a toss wrongly shows in the trace.
const tossIncidents = `
chan c[1];
shared v = 0;

proc a() {
    var x = VS_toss(3);
    vwrite(v, x);
    send(c, x);
    if (x == 3) {
        var k = 0;
        while (k == 0) {
            k = 0;
        }
    }
}

proc b() {
    var y = 0;
    var z = 0;
    vread(v, y);
    recv(c, z);
    VS_assert(z != 2);
    y = 10 / (z - 1);
    recv(c, z);
}

process a;
process b;
`

// longSteps outgrows the machine's write trail: a's first transition
// stores 67 500 times, past the log's bound of 1 << 16 entries, so the
// mark after it drops the log and kills the marks before it. A replay
// that parts from the last one at b's first step must start over.
const longSteps = `
shared v = 0;

proc a() {
    var i;
    var x = 0;
    var y = 0;
    var z = 0;
    var w = 0;
    var p = 0;
    var q = 0;
    var r = 0;
    var s = 0;
    vwrite(v, 1);
    for (i = 0; i < 7500; i = i + 1) {
        x = x + 1; y = y + 1; z = z + 1; w = w + 1;
        p = p + 1; q = q + 1; r = r + 1; s = s + 1;
    }
    vwrite(v, x);
}

proc b() {
    var y = 0;
    vread(v, y);
    VS_assert(y != 1);
}

process a;
process b;
`

// TestReplayerResetFallback: on longSteps the machine drops its trail
// under the prefix-sharing replayer, killing marks it would undo to; its
// TraceSet must be the set a full Reset and replay per leaf gives.
func TestReplayerResetFallback(t *testing.T) {
	u := mustClose(t, longSteps)
	got, rep, err := TraceSet(u, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrailDrops == 0 {
		t.Fatalf("no machine dropped its trail: %s", rep)
	}
	sys, err := interp.NewSystem(u)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	_, err = Explore(u, Options{OnLeaf: func(kind LeafKind, decisions []Decision) {
		switch kind {
		case LeafTerminated, LeafDeadlock, LeafViolation, LeafTrap:
			var b strings.Builder
			sys.Reset()
			replayOn(sys, decisions, -1, func(st ReplayStep) {
				if st.HasEvent {
					b.WriteString(st.Event.String() + " ")
				}
			}, nil)
			want[b.String()] = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 3 || !maps.Equal(got, want) {
		t.Errorf("TraceSet is\n  %v\nreplaying each leaf from Reset gives\n  %v", got, want)
	}
}

// traceJudgeCase is a program and the options every cell of it starts
// from; only, when set, names the one cell it runs.
type traceJudgeCase struct {
	name string
	src  string
	base Options
	only string
}

func traceJudgeCases() []traceJudgeCase {
	live := Options{StateCache: true, Liveness: true, MaxDepth: 200}
	return []traceJudgeCase{
		{"toss-incidents", tossIncidents, Options{}, ""},
		{"deadlock-prone", progs.DeadlockProne, Options{}, ""},
		{"assert-violation", progs.AssertViolation, Options{}, ""},
		{"philosophers-3", progs.Philosophers(3), Options{}, ""},
		{"rand-29", randPrograms(29)[0].src, Options{}, ""},
		{"spin", livelockSpin, live, ""},
		{"cross-path", livelockCrossPath, live, ""},
		{"toss-loop", livelockTossLoop, live, ""},
		{"two-proc", livelockTwoProc, live, ""},
		{"leader-n3-seeded", leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}), live, ""},
		{"lock-c2-r2-greedy", lockserver.Source(lockserver.Config{Clients: 2, Rounds: 2, GreedyClient: true}), live, ""},
		// Its transitions are long; the sequential search meets the
		// dead marks.
		{"long-steps", longSteps, Options{}, "sequential"},
	}
}

// traceJudgeCell is one way of running a case: its options, a checkpoint
// cut after cut paths followed by Resume when cut > 0, and panics at
// every state at scheduling depth panicAt when that is > 0.
type traceJudgeCell struct {
	name    string
	opt     func(o *Options)
	cut     int64
	panicAt int
}

var traceJudgeCells = []traceJudgeCell{
	{"sequential", func(*Options) {}, 0, 0},
	{"workers2", func(o *Options) { o.Workers, o.SpillDepth = 2, 2 }, 0, 0},
	{"workers2-spill", func(o *Options) { o.Workers, o.SpillDepth, o.SnapshotSpill = 2, 2, true }, 0, 0},
	{"ref", func(o *Options) { o.Engine = interp.EngineRef }, 0, 0},
	{"dynamic", func(o *Options) { o.POR = PORDynamic }, 0, 0},
	{"cut-resume", func(*Options) {}, 3, 0},
	{"workers2-cut-resume", func(o *Options) { o.Workers, o.SpillDepth = 2, 2 }, 3, 0},
	{"panics", func(*Options) {}, 0, 2},
	{"workers2-panics", func(o *Options) { o.Workers, o.SpillDepth = 2, 2 }, 0, 2},
}

// renderTrace renders a trace for comparison, stub marks included.
func renderTrace(trace []interp.Event) string {
	var b strings.Builder
	for _, ev := range trace {
		fmt.Fprintf(&b, "%s stub=%t; ", ev, ev.Stub)
	}
	return b.String()
}

// refTrace replays decisions on the reference interpreter from its
// initial state and renders the events, up to where the replay ends or
// fails.
func refTrace(ref *interp.RefSystem, decisions []Decision) string {
	ref.Reset()
	pos := 0
	ch := interp.ChooserFunc(func(int) (int, bool) {
		if pos == len(decisions) || !decisions[pos].Toss {
			return 0, false
		}
		pos++
		return decisions[pos-1].Value, true
	})
	var b strings.Builder
	if ref.Init(ch) != nil {
		return ""
	}
	for pos < len(decisions) && !decisions[pos].Toss && ref.Enabled(decisions[pos].Value) {
		pos++
		ev, out := ref.Step(decisions[pos-1].Value, ch)
		b.WriteString(renderTrace([]interp.Event{ev}))
		if out != nil {
			break
		}
	}
	return b.String()
}

func TestTraceJudge(t *testing.T) {
	var spilled atomic.Int64 // units the snapshot-spilling cells spilled
	t.Cleanup(func() {
		if spilled.Load() == 0 {
			t.Error("no snapshot-spilling search spilled a unit")
		}
	})
	for _, tc := range traceJudgeCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			u := mustClose(t, tc.src)
			ref, err := interp.NewRefSystem(u)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := interp.NewSystem(u)
			if err != nil {
				t.Fatal(err)
			}
			// One replayer for every cell, as a TraceSet search has one,
			// and the reference traces by rendered decisions: the cells
			// share most of their leaves.
			r := &replayer{sys: sys}
			refs := map[string]string{}
			refOf := func(decisions []Decision) string {
				key := fmt.Sprint(decisions)
				if _, ok := refs[key]; !ok {
					refs[key] = refTrace(ref, decisions)
				}
				return refs[key]
			}
			for _, c := range traceJudgeCells {
				if tc.only != "" && c.name != tc.only {
					continue
				}
				opt := tc.base
				c.opt(&opt)
				if _, err := opt.Resolve(); err != nil {
					continue // liveness refuses dynamic POR and snapshot spill
				}
				opt.MaxIncidents = all
				if c.panicAt > 0 {
					opt.testPanicAtState = func(d []Decision) bool {
						sched := 0
						for _, x := range d {
							if !x.Toss {
								sched++
							}
						}
						return sched == c.panicAt
					}
				}
				bare := opt
				if opt.SnapshotSpill {
					opt.Obs, bare.Obs = obs.New(), obs.New()
				}
				leaves := map[LeafKind][]string{} // the incident leaves' decisions
				opt.OnLeaf = func(kind LeafKind, decisions []Decision) {
					if got, want := renderTrace(r.replay(decisions)), refOf(decisions); got != want {
						t.Errorf("%s: %s leaf %v replayed as\n  %s\nthe reference replays it as\n  %s", c.name, kind, decisions, got, want)
					}
					if kind != LeafTerminated && kind != LeafDepth && kind != LeafSleepPruned && kind != LeafCachePruned {
						leaves[kind] = append(leaves[kind], fmt.Sprint(decisions))
					}
				}
				var rep *Report
				if c.cut > 0 {
					var snap *Snapshot
					if snap, rep = cutOnce(t, u, opt, c.cut); snap != nil {
						rep, err = Resume(u, snap, opt)
					}
				} else {
					rep, err = Explore(u, opt)
				}
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if rep.Incomplete {
					t.Fatalf("%s: the search did not complete: %s", c.name, rep)
				}
				if c.panicAt > 0 && rep.InternalErrors == 0 {
					t.Fatalf("%s: no path panicked", c.name)
				}
				if rep.Incidents() == 0 {
					t.Fatalf("%s: no incident", c.name)
				}
				if opt.SnapshotSpill {
					spilled.Add(judgeSpill(t, u, c.name, rep, opt.Obs, bare))
				}
				for i, in := range rep.Samples {
					if got, want := renderTrace(in.Trace), refOf(in.Decisions); got != want {
						t.Errorf("%s: %s sample %d %v rebuilt as\n  %s\nthe reference replays it as\n  %s", c.name, in.Kind, i, in.Decisions, got, want)
					}
					if in.Kind == LeafInternalError {
						continue
					}
					k := slices.Index(leaves[in.Kind], fmt.Sprint(in.Decisions))
					if k < 0 {
						t.Errorf("%s: %s sample %d %v was no %s leaf's decisions", c.name, in.Kind, i, in.Decisions, in.Kind)
						continue
					}
					leaves[in.Kind] = slices.Delete(leaves[in.Kind], k, k+1)
				}
				for kind, left := range leaves {
					if len(left) > 0 {
						t.Errorf("%s: %d %s leaves are no sample's decisions, first: %s", c.name, len(left), kind, left[0])
					}
				}
			}
		})
	}
}

// judgeSpill holds a snapshot-spilling search with OnLeaf, whose report
// is rep and registry reg, to the same search without it, bare: it forks
// a snapshot per spilled unit, and the callback changes no counter —
// costs and claims included. Left out are what follow the two workers'
// timing: StatesAtFirstIncident, which follows whichever finds an
// incident first, and the units one steals from the other. It returns
// the units spilled.
func judgeSpill(t *testing.T, u *cfg.Unit, name string, rep *Report, reg *obs.Registry, bare Options) int64 {
	t.Helper()
	spilled, forks := reg.Counter(MetricUnitsSpilled).Load(), reg.Counter(MetricInterpForks).Load()
	if forks < spilled {
		t.Errorf("%s: %d units spilled, %d snapshots forked", name, spilled, forks)
	}
	want, err := Explore(u, bare)
	if err != nil {
		t.Fatalf("%s without OnLeaf: %v", name, err)
	}
	g, w := rep.Counters, want.Counters
	g.StatesAtFirstIncident, w.StatesAtFirstIncident = 0, 0
	if g != w {
		t.Errorf("%s: with OnLeaf the counters are\n  %+v\nwithout\n  %+v", name, g, w)
	}
	for _, m := range reg.CounterNames() {
		if g, w := reg.Counter(m).Load(), bare.Obs.Counter(m).Load(); g != w && m != MetricUnitsStolen {
			t.Errorf("%s: %s is %d with OnLeaf, %d without", name, m, g, w)
		}
	}
	return spilled
}
