package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from outside: the
// benchmark opens it before the layer's public function and closes it
// after. Counts are attached to the span at whose boundary they were
// read, so a ratio is always taken where the work happened.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for a root
	Name   string           `json:"name"`
	Item   string           `json:"item"` // item or job the span belongs to
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Self   time.Duration    `json:"self_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// bare pass: begin and end do nothing, so traced and untraced passes run
// the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

func (t *tracer) begin(parent int, name, item string) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Item: item, Start: now})
	return id
}

func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Counts = counts
}

// finish computes self times and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	fillSelfTimes(t.spans)
	return t.spans
}

// fillSelfTimes sets each span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap one
// another (two pollers) or stick out of the parent (a child closed
// late); only the union inside the parent is subtracted.
func fillSelfTimes(spans []span) {
	type iv struct{ a, b time.Duration }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
		covered := s.Start
		for _, k := range kids {
			a, b := max(k.a, covered), min(k.b, s.End)
			if b > a {
				s.Self -= b - a
				covered = b
			}
		}
	}
}

// spanTotals sums durations, self times and counts by span name.
type spanTotals struct {
	dur, self map[string]time.Duration
	counts    map[string]int64
	n         map[string]int
}

func totalSpans(spans []span) spanTotals {
	t := spanTotals{
		dur:    make(map[string]time.Duration),
		self:   make(map[string]time.Duration),
		counts: make(map[string]int64),
		n:      make(map[string]int),
	}
	for _, s := range spans {
		t.dur[s.Name] += s.End - s.Start
		t.self[s.Name] += s.Self
		t.n[s.Name]++
		for k, v := range s.Counts {
			t.counts[k] += v
		}
	}
	return t
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
