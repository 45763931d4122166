package interp_test

import (
	"math/rand"
	"testing"

	"reclose/internal/core"
	"reclose/internal/randprog"
)

// FuzzBytecodeLockstep feeds arbitrary MiniC source through the full
// pipeline (parse, check, close) and, when it closes, runs the machine
// judge (judge_test.go) over it, down one uncut schedule of up to 150
// steps and one seeded schedule: the hashing and the full-render
// compiled machine and the reference through Reset, Init, Step,
// ForkMachine, Mark/excursion/Undo and unwinding, every observable
// compared at every state. Its seeds are three programs of
// its own, the hand-written programs of the judge's corpus and three
// open randprog.Pointers programs. scripts/verify.sh runs this for a
// short smoke period on every verify.
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
	for _, h := range handwritten {
		f.Add(h.src)
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
		j := newJudge(t, "fuzz/uncut", u, 1000, nil)
		j.deep(1, 150, mixLockstep)
		j.label = "fuzz/schedule"
		j.schedule(1, judgeOps, mixLockstep)
	})
}
