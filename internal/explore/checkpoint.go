package explore

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"reclose/internal/cfg"
	"reclose/internal/interp"
	"reclose/internal/statecache"
)

// SnapshotVersion is the checkpoint format version written into every
// snapshot; DecodeSnapshot and Resume reject any other version.
const SnapshotVersion = 1

// Snapshot is a serializable checkpoint of a search: the merged partial
// counters, coverage, and incident samples of the explored part, plus
// the unexplored remainder as a list of decision-prefix work units
// (unclaimed frontier plus the residual subtrees of in-flight paths).
// Because the explorer is stateless, a decision prefix is all it takes
// to reconstruct any point of the search — no interpreter state is
// serialized. The counters, decisions and incident samples are the
// search's own types, encoded as themselves; only work units go through
// a wire form (snapUnit), which spells object indices as names.
// Snapshots are produced by Options.Checkpoint or Report.Snapshot,
// persisted as JSON via Encode, and consumed by Resume.
type Snapshot struct {
	Version int `json:"version"`

	// Program identity, checked on resume: a snapshot only resumes
	// against a unit with the same process count and CFG site count.
	Processes int `json:"processes"`
	SiteBits  int `json:"site_bits"`

	Counters Counters   `json:"counters"`
	Coverage string     `json:"coverage,omitempty"` // hex bitmap over CFG sites
	Samples  []Incident `json:"samples,omitempty"`  // traces left out
	Units    []snapUnit `json:"units,omitempty"`

	// Cache summarizes the shared state cache's occupancy at snapshot
	// time (nil without StateCache). It is informational only: the
	// cache is never serialized, and restore ignores this field — a
	// resumed search starts with an empty cache and repopulates it,
	// which can re-explore already-pruned subtrees but never lose
	// coverage.
	Cache *snapCache `json:"cache,omitempty"`
}

// snapCache is the informational cache-occupancy section of a
// Snapshot.
type snapCache struct {
	Shards    int   `json:"shards"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// What the entries hold (Report.CacheSummary): the machine's
	// business, so in no snapshot.
	stored, segments, segmentBytes int64
}

// cacheSnap summarizes a state cache for snapshots and final reports;
// a nil cache yields nil.
func cacheSnap(c *statecache.Cache) *snapCache {
	if c == nil {
		return nil
	}
	st := c.Stats()
	return &snapCache{
		Shards:    st.Shards,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		stored:    st.Stored, segments: st.Segments, segmentBytes: st.SegmentBytes,
	}
}

// snapUnit is one serialized work unit. Objects go by name: the engine's
// indices are translated at this boundary. Sleep keys are process indices
// rendered as decimal strings (JSON object keys must be strings). The
// in-memory snapshot of a SnapshotSpill unit (workUnit.snap) is
// deliberately not serialized: the decision prefix alone reconstructs
// the unit's state, so restored units simply replay.
type snapUnit struct {
	Prefix  []Decision        `json:"prefix,omitempty"`
	Options []int             `json:"options,omitempty"`
	Objs    []string          `json:"objs,omitempty"`
	Sleep   map[string]string `json:"sleep,omitempty"`
	From    int               `json:"from,omitempty"`
	Root    bool              `json:"root,omitempty"`
	Toss    bool              `json:"toss,omitempty"`
	Cont    bool              `json:"cont,omitempty"`
	// Stack serializes a dynamic-POR stack-continuation unit; when
	// non-empty, Options/Objs/From are unused.
	Stack []snapFrame `json:"stack,omitempty"`
}

// snapFrame is one serialized DFS stack frame of a stack-continuation
// unit, carrying the still-growing backtrack set across the cut.
type snapFrame struct {
	Toss      bool              `json:"toss,omitempty"`
	Options   []int             `json:"options,omitempty"`
	Objs      []string          `json:"objs,omitempty"`
	Cursor    int               `json:"cursor,omitempty"`
	Sleep     map[string]string `json:"sleep,omitempty"`
	Enabled   []int             `json:"enabled,omitempty"`
	EnObjs    []string          `json:"en_objs,omitempty"`
	Backtrack []int             `json:"backtrack,omitempty"`
	Statics   []int             `json:"statics,omitempty"`
	Sealed    bool              `json:"sealed,omitempty"`
	Dynamic   bool              `json:"dynamic,omitempty"`
}

// Encode renders the snapshot as versioned, human-readable JSON.
func (s *Snapshot) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// DecodeSnapshot parses a snapshot previously rendered by Encode and
// validates its version.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("explore: malformed snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("explore: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	return &s, nil
}

// Snapshot returns the remaining-work snapshot of an Incomplete report,
// ready for Resume; it returns nil for a complete report (there is
// nothing left to resume).
func (r *Report) Snapshot() *Snapshot {
	if !r.Incomplete || r.cov == nil {
		return nil
	}
	return buildSnapshot(r, r.pending)
}

// buildSnapshot serializes a merged partial report plus the unexplored
// units. rep must come from accum.finalize (it carries the coverage
// bitmap and program identity).
func buildSnapshot(rep *Report, units []*workUnit) *Snapshot {
	s := &Snapshot{
		Version:   SnapshotVersion,
		Processes: rep.procs,
		SiteBits:  rep.sites.bits,
		Counters:  rep.Counters,
		Coverage:  hex.EncodeToString(covBytes(rep.cov)),
		Cache:     rep.cacheSum,
	}
	// A snapshot holds what its encoding does: no trail counters, no traces.
	s.Counters.TrailRestores, s.Counters.TrailUndone, s.Counters.TrailDrops = 0, 0, 0
	for _, in := range rep.Samples {
		in := *in
		in.Trace = nil
		s.Samples = append(s.Samples, in)
	}
	for _, u := range units {
		s.Units = append(s.Units, rep.sites.snapFromUnit(u))
	}
	return s
}

// restoredState is a decoded, validated snapshot ready to seed a
// search: partial counters and samples (without traces), the
// coverage bitmap, and the unexplored work units.
type restoredState struct {
	partial
	units []*workUnit
}

// restoreSnapshot validates a snapshot against the unit it is about to
// resume and converts it back into engine structures. Structural
// problems (wrong version, wrong program identity, malformed units)
// fail here with an error, as does a unit naming an object or process
// the program does not have; semantically stale decision prefixes are
// caught later, at replay time, where the per-path recovery isolates
// them into internal-error incidents.
func restoreSnapshot(u *cfg.Unit, snap *Snapshot) (*restoredState, error) {
	if snap == nil {
		return nil, fmt.Errorf("explore: nil snapshot")
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("explore: snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	sites := newSiteTable(u)
	if snap.Processes != len(u.Processes) || snap.SiteBits != sites.bits {
		return nil, fmt.Errorf(
			"explore: snapshot does not match program (snapshot: %d processes, %d sites; program: %d processes, %d sites)",
			snap.Processes, snap.SiteBits, len(u.Processes), sites.bits)
	}
	covered, err := covFromHex(snap.Coverage, sites)
	if err != nil {
		return nil, err
	}

	if err := snap.Counters.check(); err != nil {
		return nil, err
	}
	rep := &Report{Counters: snap.Counters}
	for _, in := range snap.Samples {
		// A copy: the snapshot stays as it was given. The search that
		// resumes rebuilds the trace of each sample it keeps.
		rep.Samples = append(rep.Samples, &in)
	}

	units := make([]*workUnit, 0, len(snap.Units))
	for i, su := range snap.Units {
		wu, err := sites.unitFromSnap(&su, len(u.Processes))
		if err != nil {
			return nil, fmt.Errorf("explore: snapshot unit %d: %w", i, err)
		}
		units = append(units, wu)
	}
	return &restoredState{partial: partial{rep: rep, covered: covered}, units: units}, nil
}

// check refuses a negative tally, naming its key: the search budgets
// against these (a negative states would buy a resumed search that many
// fresh states past MaxStates), and nothing it counts goes below zero.
func (c *Counters) check() error {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Int(); n < 0 {
			key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			return fmt.Errorf("explore: snapshot counter %s is %d; it must not be negative", key, n)
		}
	}
	return nil
}

// snapFromUnit serializes one work unit.
func (t *siteTable) snapFromUnit(u *workUnit) snapUnit {
	su := snapUnit{
		Prefix:  u.prefix,
		Options: u.options,
		Objs:    t.objNames(u.objs),
		Sleep:   t.snapFromSleep(u.sleep),
		From:    u.from,
		Root:    u.root,
		Toss:    u.toss,
		Cont:    u.cont,
	}
	for i := range u.stack {
		f := &u.stack[i]
		su.Stack = append(su.Stack, snapFrame{
			Toss:      f.toss,
			Options:   f.options,
			Objs:      t.objNames(f.objs),
			Cursor:    f.cursor,
			Sleep:     t.snapFromSleep(f.sleep),
			Enabled:   f.enabled,
			EnObjs:    t.objNames(f.enObjs),
			Backtrack: f.backtrack,
			Statics:   f.statics,
			Sealed:    f.sealed,
			Dynamic:   f.dynamic,
		})
	}
	return su
}

// snapFromSleep renders a sleep set as a JSON-friendly map (object keys
// must be strings).
func (t *siteTable) snapFromSleep(s sleepSet) map[string]string {
	if len(s) == 0 {
		return nil
	}
	out := make(map[string]string, len(s))
	for _, se := range s {
		out[strconv.Itoa(se.proc)] = t.name(se.obj)
	}
	return out
}

// unitFromSnap deserializes one work unit of a program with procs
// processes, turning object names back into indices. It rejects a
// malformed or stale unit — the engine indexes these slices, and arrays
// with these values, unchecked — naming the first field found wrong.
func (t *siteTable) unitFromSnap(su *snapUnit, procs int) (*workUnit, error) {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf(format, args...)
		}
	}
	num := interp.Numbering{Objects: t.objs}
	obj := func(field string, i any, name string) int32 { // "" is VS_assert's none
		o := num.Object(name)
		if o < 0 && name != "" {
			fail("%s[%v]: the program declares no object %q", field, i, name)
		}
		return o
	}
	objs := func(field string, names []string) []int32 {
		if len(names) == 0 {
			return nil
		}
		out := make([]int32, len(names))
		for i, name := range names {
			out[i] = obj(field, i, name)
		}
		return out
	}
	procList := func(field string, ps []int) []int {
		for i, p := range ps {
			if p < 0 || p >= procs {
				fail("%s[%d]: process %d out of range [0, %d)", field, i, p, procs)
			}
		}
		return ps
	}
	// JSON map iteration is unordered: restore the by-process order.
	sleep := func(m map[string]string) sleepSet {
		if len(m) == 0 {
			return nil
		}
		s := make(sleepSet, 0, len(m))
		for k, name := range m {
			p, aerr := strconv.Atoi(k)
			if aerr != nil || p < 0 || p >= procs {
				fail("sleep: key %q is not a process in [0, %d)", k, procs)
			}
			s = append(s, sleepEntry{proc: p, obj: obj("sleep", k, name)})
		}
		sort.Slice(s, func(i, j int) bool { return s[i].proc < s[j].proc })
		return s
	}
	// shape checks one decision point: a cursor inside its options and,
	// at a scheduling point, process-valued options with an object each.
	shape := func(what string, cursor int, toss bool, options []int, nobjs int) {
		if cursor < 0 || cursor >= len(options) {
			fail("%s %d out of range (have %d options)", what, cursor, len(options))
		}
		if !toss {
			procList("options", options)
			if nobjs != len(options) {
				fail("have %d objs for %d options", nobjs, len(options))
			}
		}
	}

	u := &workUnit{
		prefix:  su.Prefix,
		options: su.Options,
		objs:    objs("objs", su.Objs),
		sleep:   sleep(su.Sleep),
		from:    su.From,
		root:    su.Root,
		toss:    su.Toss,
		cont:    su.Cont,
	}
	for i := range su.Stack {
		sf := &su.Stack[i]
		shape("cursor", sf.Cursor, sf.Toss, sf.Options, len(sf.Objs))
		if len(sf.EnObjs) != len(sf.Enabled) {
			fail("have %d enabled objs for %d enabled procs", len(sf.EnObjs), len(sf.Enabled))
		}
		u.stack = append(u.stack, stackFrame{
			toss:      sf.Toss,
			options:   sf.Options,
			objs:      objs("objs", sf.Objs),
			cursor:    sf.Cursor,
			sleep:     sleep(sf.Sleep),
			enabled:   procList("enabled", sf.Enabled),
			enObjs:    objs("en_objs", sf.EnObjs),
			backtrack: procList("backtrack", sf.Backtrack),
			statics:   procList("statics", sf.Statics),
			sealed:    sf.Sealed,
			dynamic:   sf.Dynamic,
		})
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	if len(u.stack) == 0 && !u.root && !u.cont {
		shape("option index", u.from, u.toss, u.options, len(u.objs))
	}
	return u, err
}

// covBytes renders a coverage bitmap as little-endian bytes.
func covBytes(c coverage) []byte {
	out := make([]byte, 8*len(c))
	for i, w := range c {
		for j := 0; j < 8; j++ {
			out[8*i+j] = byte(w >> (8 * j))
		}
	}
	return out
}

// covFromHex parses a hex coverage bitmap, validating its width against
// the unit's site table.
func covFromHex(s string, sites *siteTable) (coverage, error) {
	c := newCoverage(sites)
	if s == "" {
		return c, nil
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("explore: malformed snapshot coverage: %w", err)
	}
	if len(b) != 8*len(c) {
		return nil, fmt.Errorf("explore: snapshot coverage is %d bytes, want %d", len(b), 8*len(c))
	}
	for i := range c {
		var w uint64
		for j := 7; j >= 0; j-- {
			w = w<<8 | uint64(b[8*i+j])
		}
		c[i] = w
	}
	return c, nil
}
