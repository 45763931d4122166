package explore

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"reclose/internal/interp"
	"reclose/internal/leaderelect"
	"reclose/internal/lockserver"
	"reclose/internal/obs"
	"reclose/internal/progs"
)

// The trace judge. A search keeps a sample's decisions, not its trace,
// and rebuilds the trace by replaying them when it ends (replay.go); a
// search with OnLeaf keeps each path's trace step by step instead, since
// it hands every leaf's over. The two must agree: with every incident
// sampled, the rebuilt traces of a search's samples are, kind by kind,
// the traces its OnLeaf was handed at its incident leaves — the same
// multiset, whatever the workers, snapshots, engine, reduction or
// checkpoint. An internal-error leaf reaches no OnLeaf; its rebuilt trace
// is held to its decisions replayed up to where the replay fails.

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

// traceJudgeCase is a program and the options every cell of it starts
// from.
type traceJudgeCase struct {
	name string
	src  string
	base Options
}

func traceJudgeCases() []traceJudgeCase {
	live := Options{StateCache: true, Liveness: true, MaxDepth: 200}
	return []traceJudgeCase{
		{"toss-incidents", tossIncidents, Options{}},
		{"deadlock-prone", progs.DeadlockProne, Options{}},
		{"assert-violation", progs.AssertViolation, Options{}},
		{"philosophers-3", progs.Philosophers(3), Options{}},
		{"rand-29", randPrograms(29)[0].src, Options{}},
		{"spin", livelockSpin, live},
		{"cross-path", livelockCrossPath, live},
		{"toss-loop", livelockTossLoop, live},
		{"two-proc", livelockTwoProc, live},
		{"leader-n3-seeded", leaderelect.Source(leaderelect.Config{Nodes: 3, SeedLivelock: true}), live},
		{"lock-c2-r2-greedy", lockserver.Source(lockserver.Config{Clients: 2, Rounds: 2, GreedyClient: true}), live},
	}
}

// traceJudgeCell is one way of running a case: its options, a checkpoint
// cut after cut paths followed by Resume when cut > 0, and panics at
// every state at scheduling depth panicAt when that is > 0. With bare
// set, the samples judged are those of a second search without OnLeaf:
// one with OnLeaf spills no snapshots, which carry no trace.
type traceJudgeCell struct {
	name    string
	opt     func(o *Options)
	cut     int64
	panicAt int
	bare    bool
}

var traceJudgeCells = []traceJudgeCell{
	{"sequential", func(*Options) {}, 0, 0, false},
	{"workers2", func(o *Options) { o.Workers, o.SpillDepth = 2, 2 }, 0, 0, false},
	{"workers2-spill", func(o *Options) { o.Workers, o.SpillDepth, o.SnapshotSpill = 2, 2, true }, 0, 0, true},
	{"ref", func(o *Options) { o.Engine = interp.EngineRef }, 0, 0, false},
	{"dynamic", func(o *Options) { o.POR = PORDynamic }, 0, 0, false},
	{"cut-resume", func(*Options) {}, 3, 0, false},
	{"workers2-cut-resume", func(o *Options) { o.Workers, o.SpillDepth = 2, 2 }, 3, 0, false},
	{"panics", func(*Options) {}, 0, 2, false},
	{"workers2-panics", func(o *Options) { o.Workers, o.SpillDepth = 2, 2 }, 0, 2, false},
}

// renderTrace renders a trace for comparison, stub marks included.
func renderTrace(trace []interp.Event) string {
	var b strings.Builder
	for _, ev := range trace {
		fmt.Fprintf(&b, "%s stub=%t; ", ev, ev.Stub)
	}
	return b.String()
}

func TestTraceJudge(t *testing.T) {
	var forked atomic.Int64 // snapshots the bare searches forked
	t.Cleanup(func() {
		if forked.Load() == 0 {
			t.Error("no bare search forked a snapshot")
		}
	})
	for _, tc := range traceJudgeCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			u := mustClose(t, tc.src)
			for _, c := range traceJudgeCells {
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
				eager := map[LeafKind][]string{}
				opt.OnLeaf = func(kind LeafKind, trace []interp.Event) {
					if kind != LeafTerminated && kind != LeafDepth && kind != LeafSleepPruned && kind != LeafCachePruned {
						eager[kind] = append(eager[kind], renderTrace(trace))
					}
				}
				var rep *Report
				var err error
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
				if c.bare {
					opt.OnLeaf, opt.Obs = nil, obs.New()
					if rep, err = Explore(u, opt); err != nil || rep.Incomplete {
						t.Fatalf("%s without OnLeaf: %v %v", c.name, err, rep)
					}
					spilled, forks := opt.Obs.Counter(MetricUnitsSpilled).Load(), opt.Obs.Counter(MetricInterpForks).Load()
					if forks < spilled {
						t.Fatalf("%s without OnLeaf: %d units spilled, %d snapshots forked", c.name, spilled, forks)
					}
					forked.Add(forks)
				}
				for i, in := range rep.Samples {
					got := renderTrace(in.Trace)
					if in.Kind == LeafInternalError {
						var want []interp.Event
						Replay(u, in.Decisions, func(st ReplayStep) {
							if st.HasEvent {
								want = append(want, st.Event)
							}
						})
						if got != renderTrace(want) {
							t.Errorf("%s: internal-error sample %d rebuilt as\n  %s\nits decisions replay as\n  %s", c.name, i, got, renderTrace(want))
						}
						continue
					}
					k := slices.Index(eager[in.Kind], got)
					if k < 0 {
						t.Errorf("%s: %s sample %d (%d decisions) rebuilt as\n  %s\nwhich no %s leaf was handed; those were:\n  %s",
							c.name, in.Kind, i, len(in.Decisions), got, in.Kind, strings.Join(eager[in.Kind], "\n  "))
						continue
					}
					eager[in.Kind] = slices.Delete(eager[in.Kind], k, k+1)
				}
				for kind, left := range eager {
					if len(left) > 0 {
						t.Errorf("%s: %d %s leaves have no sample with their trace, first:\n  %s", c.name, len(left), kind, left[0])
					}
				}
			}
		})
	}
}
