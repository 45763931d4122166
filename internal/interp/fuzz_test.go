package interp_test

import (
	"math/rand"
	"testing"

	"reclose/internal/core"
	"reclose/internal/randprog"
)

// FuzzBytecodeLockstep feeds arbitrary MiniC source through the full
// pipeline (parse, check, close) and, when it closes, drives the
// compiled machine — once with incremental state hashing, once
// rendering in full — and the reference interpreter in lockstep: any
// divergence in events, outcomes, fingerprints, or state hashes fails
// the fuzz run. It then sweeps Fork over the program's first states with
// hashing on and off — every fork must be indistinguishable from, and
// independent of, its source (copy_test.go) — and runs the key-segment
// schedule (keyseg_test.go): steps interleaved with forks and resets,
// the assembled key compared with the full render after every
// operation — and the undo sweep
// (trail_test.go): at every state of a schedule a mark, an excursion of a
// few transitions and an Undo that must leave the machine where one that
// never left is.
// scripts/verify.sh runs this for a short smoke period on every verify.
func FuzzBytecodeLockstep(f *testing.F) {
	f.Add(`
chan c[2];
proc main() {
    var i;
    for (i = 0; i < 3; i = i + 1) {
        send(c, i);
        recv(c, i);
    }
}
process main;
`)
	f.Add(`
sem s = 1;
shared g = 0;
proc worker() {
    var t;
    wait(s);
    vread(g, t);
    vwrite(g, t + 1);
    signal(s);
    VS_assert(t >= 0);
}
process worker;
process worker;
`)
	f.Add(`
chan out[4];
proc helper(p) {
    *p = *p + VS_toss(2);
}
proc main() {
    var x = 1;
    helper(&x);
    var a[3];
    a[x] = x;
    send(out, a[1]);
}
process main;
`)
	for _, tc := range copyCases {
		f.Add(tc.src)
	}
	for _, tc := range keyCases {
		f.Add(tc.src)
	}
	for _, tc := range undoCases {
		f.Add(tc.src)
	}
	// Open pointer programs, closed below: one ends clean, one traps on
	// pointer arithmetic, one on a bad array index.
	for _, seed := range []int64{0, 3, 27} {
		f.Add(randprog.Pointers(rand.New(rand.NewSource(seed))))
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, _, err := core.CloseSource(src)
		if err != nil {
			t.Skip()
		}
		if len(u.Processes) == 0 {
			// Not executable: nothing to compare.
			t.Skip()
		}
		lockstep(t, "fuzz", u, 150)
		copySweep(t, "fuzz", u, 1, 6, 30)
		keySchedule(t, "fuzz", u, 1, 60)
		undoSweep(t, "fuzz", u, 1, 30, 1000)
	})
}
