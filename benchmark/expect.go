package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"reclose/internal/core"
	"reclose/internal/explore"
	"reclose/internal/interp"
	"reclose/internal/jobs"
	"reclose/internal/randprog"
)

// verdict is what one run of one item answered: the exit code (0 clean,
// 3 incidents, 4 incomplete), the size of the search, the incidents by
// kind and — for reclose — the node counts of the closing: line. It is
// both the known answer and the observation, so a check is ==.
type verdict struct {
	Exit           int   `json:"exit"`
	States         int64 `json:"states,omitempty"`
	Transitions    int64 `json:"transitions,omitempty"`
	Paths          int64 `json:"paths,omitempty"`
	Deadlocks      int64 `json:"deadlocks,omitempty"`
	Violations     int64 `json:"violations,omitempty"`
	Traps          int64 `json:"traps,omitempty"`
	Divergences    int64 `json:"divergences,omitempty"`
	Livelocks      int64 `json:"livelocks,omitempty"`
	InternalErrors int64 `json:"internal_errors,omitempty"`
	NodesOpen      int64 `json:"nodes_open,omitempty"`
	NodesClosed    int64 `json:"nodes_closed,omitempty"`
}

// answer is a known answer. Fixed items pin every field (hand-recorded
// in expected.json at the seed commit). Tail programs come from the
// reference tier, which explores without reduction and so counts more
// paths: there only the exit code and the set of incident kinds are
// known.
type answer struct {
	verdict
	kindsOnly bool
}

func (a answer) check(got verdict) error {
	want := a.verdict
	if a.kindsOnly {
		want, got = want.kinds(), got.kinds()
	}
	if want != got {
		return fmt.Errorf("verdict %+v, want %+v", got, want)
	}
	return nil
}

// kinds reduces a verdict to its exit code and which incident kinds
// occurred.
func (v verdict) kinds() verdict {
	sign := func(n int64) int64 {
		if n > 0 {
			return 1
		}
		return 0
	}
	return verdict{
		Exit:           v.Exit,
		Deadlocks:      sign(v.Deadlocks),
		Violations:     sign(v.Violations),
		Traps:          sign(v.Traps),
		Divergences:    sign(v.Divergences),
		Livelocks:      sign(v.Livelocks),
		InternalErrors: sign(v.InternalErrors),
	}
}

func (v verdict) incidents() int64 {
	return v.Deadlocks + v.Violations + v.Traps + v.Divergences + v.Livelocks + v.InternalErrors
}

//go:embed expected.json
var expectedJSON []byte

// loadExpected returns the hand-recorded answers by item name.
func loadExpected() (map[string]answer, error) {
	var raw map[string]verdict
	if err := json.Unmarshal(expectedJSON, &raw); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	out := make(map[string]answer, len(raw))
	for name, v := range raw {
		out[name] = answer{verdict: v}
	}
	return out, nil
}

// parseCLI reads a verdict off the stdout of reclose or verisoft: the
// closing: line, or the summary: line plus the FOUND: line (absent on a
// run without incidents).
func parseCLI(tool string, exit int, stdout string) (verdict, error) {
	v := verdict{Exit: exit}
	var summary, found, closing string
	for _, line := range strings.Split(stdout, "\n") {
		switch {
		case strings.HasPrefix(line, "summary: "):
			summary = line
		case strings.HasPrefix(line, "FOUND: "):
			found = line
		case strings.HasPrefix(line, "closing: "):
			closing = line
		}
	}
	if tool == toolReclose {
		var procs int
		if _, err := fmt.Sscanf(closing, "closing: procs=%d nodes %d->%d", &procs, &v.NodesOpen, &v.NodesClosed); err != nil {
			return v, fmt.Errorf("no closing: line (%q): %v", closing, err)
		}
		return v, nil
	}
	var incidents int64
	if _, err := fmt.Sscanf(summary, "summary: states=%d transitions=%d paths=%d incidents=%d",
		&v.States, &v.Transitions, &v.Paths, &incidents); err != nil {
		return v, fmt.Errorf("no summary: line (%q): %v", summary, err)
	}
	if found != "" {
		// Without -liveness the line ends before the livelock count: five
		// scanned fields are a whole line, fewer a malformed one.
		if n, err := fmt.Sscanf(found, "FOUND: %d deadlock(s), %d violation(s), %d error(s), %d divergence(s), %d internal error(s), %d livelock(s)",
			&v.Deadlocks, &v.Violations, &v.Traps, &v.Divergences, &v.InternalErrors, &v.Livelocks); n < 5 {
			return v, fmt.Errorf("bad FOUND: line (%q): %v", found, err)
		}
	}
	if v.incidents() != incidents {
		return v, fmt.Errorf("summary: says %d incidents, FOUND: line adds up to %d", incidents, v.incidents())
	}
	return v, nil
}

func exitCode(incidents int64, incomplete bool) int {
	switch {
	case incidents > 0:
		return 3
	case incomplete:
		return 4
	}
	return 0
}

// reportVerdict is the verdict of an in-process search, with the exit
// code cmd/verisoft would have returned.
func reportVerdict(rep *explore.Report) verdict {
	return verdict{
		Exit:           exitCode(rep.Incidents(), rep.Incomplete),
		States:         rep.States,
		Transitions:    rep.Transitions,
		Paths:          rep.Paths,
		Deadlocks:      rep.Deadlocks,
		Violations:     rep.Violations,
		Traps:          rep.Traps,
		Divergences:    rep.Divergences,
		Livelocks:      rep.Livelocks,
		InternalErrors: rep.InternalErrors,
	}
}

// jobVerdict is the verdict of a finished daemon job.
func jobVerdict(res *jobs.Result) verdict {
	return verdict{
		Exit:           exitCode(res.Incidents, !res.Complete),
		States:         res.States,
		Transitions:    res.Transitions,
		Paths:          res.Paths,
		Deadlocks:      res.Deadlocks,
		Violations:     res.Violations,
		Traps:          res.Traps,
		Divergences:    res.Divergences,
		Livelocks:      res.Livelocks,
		InternalErrors: res.InternalErrors,
	}
}

// refStateBudget bounds the reference search of a tail candidate; a
// program that needs more is skipped, so no tail item can dominate a
// workload's time. The cut is on a state count, so it is the same on
// every host.
const refStateBudget = 5000

// tailPrograms draws the seeded tail: tailSize random open programs and
// their answers from the independent reference tier (reference
// interpreter, no reduction) — never from the tier being timed.
func tailPrograms(seed int64) (srcs []string, answers []answer, err error) {
	r := rand.New(rand.NewSource(seed))
	for len(srcs) < tailSize {
		src := randprog.Generate(r, randprog.Config{Processes: 3, MaxStmts: 8})
		closed, _, err := core.CloseSource(src)
		if err != nil {
			return nil, nil, fmt.Errorf("tail program %d of seed %d: %w", len(srcs), seed, err)
		}
		rep, err := explore.Explore(closed, explore.Options{
			Engine:    interp.EngineRef,
			POR:       explore.POROff,
			MaxStates: refStateBudget,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("tail program %d of seed %d: reference search: %w", len(srcs), seed, err)
		}
		if rep.Incomplete {
			continue
		}
		srcs = append(srcs, src)
		answers = append(answers, answer{verdict: reportVerdict(rep), kindsOnly: true})
	}
	return srcs, answers, nil
}
