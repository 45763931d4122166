package main

import (
	"testing"
	"time"
)

// Self time is the span's duration minus the part of its interval that
// its children cover.
func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	sp := func(id, parent, start, end int) span {
		return span{ID: id, Parent: parent, Start: ms(start), End: ms(end)}
	}
	for _, tc := range []struct {
		name  string
		spans []span
		self  []int // expected self time per span, ms
	}{
		{"leaf", []span{sp(0, -1, 0, 10)}, []int{10}},
		{"two children in sequence", []span{sp(0, -1, 0, 10), sp(1, 0, 1, 4), sp(2, 0, 5, 9)}, []int{3, 3, 4}},
		{"grandchild counts against its parent only", []span{sp(0, -1, 0, 10), sp(1, 0, 2, 8), sp(2, 1, 3, 5)}, []int{4, 4, 2}},
		{"overlapping children are counted once", []span{sp(0, -1, 0, 10), sp(1, 0, 2, 6), sp(2, 0, 4, 8)}, []int{4, 4, 4}},
		{"a child contained in another adds nothing", []span{sp(0, -1, 0, 10), sp(1, 0, 1, 9), sp(2, 0, 3, 4)}, []int{2, 8, 1}},
		{"a child sticking out is clipped to the parent", []span{sp(0, -1, 0, 10), sp(1, 0, 8, 14)}, []int{8, 6}},
		{"children that cover the parent leave zero", []span{sp(0, -1, 0, 10), sp(1, 0, 0, 5), sp(2, 0, 5, 10)}, []int{0, 5, 5}},
		{"two roots", []span{sp(0, -1, 0, 4), sp(1, -1, 4, 9), sp(2, 1, 5, 6)}, []int{4, 4, 1}},
	} {
		fillSelfTimes(tc.spans)
		for i, want := range tc.self {
			if got := tc.spans[i].Self; got != ms(want) {
				t.Errorf("%s: span %d self = %v, want %v", tc.name, i, got, ms(want))
			}
		}
	}
}

func TestTracerRecordsParentsAndCounts(t *testing.T) {
	tr := newTracer()
	root := tr.begin(noSpan, "item", "x")
	child := tr.begin(root, "parser.parse", "x")
	tr.end(child, map[string]int64{"parser.bytes": 7})
	tr.end(root, nil)
	spans := tr.finish()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Parent != noSpan {
		t.Fatalf("bad tree: %+v", spans)
	}
	tot := totalSpans(spans)
	if tot.counts["parser.bytes"] != 7 || tot.n["item"] != 1 {
		t.Errorf("totals = %+v", tot)
	}
	if spans[0].Self+spans[1].Self != spans[0].End-spans[0].Start {
		t.Errorf("self times %v + %v do not add up to the root's duration", spans[0].Self, spans[1].Self)
	}

	// The bare pass: a nil tracer records nothing and never panics.
	var bare *tracer
	bare.end(bare.begin(noSpan, "item", "x"), nil)
}
