package lexer

import (
	"math"
	"testing"

	"reclose/internal/token"
)

// TestPositionsSaturate starts a lexer whose line and column counters
// are just below math.MaxInt32 and checks that every position it hands
// out stays non-negative, pinned at the limit once the counters pass it.
func TestPositionsSaturate(t *testing.T) {
	l := New([]byte("a bb\nccc  d\n\ne"))
	l.line, l.col = math.MaxInt32-1, math.MaxInt32-1
	var got []token.Pos
	for tok := l.Next(); tok.Kind != token.EOF; tok = l.Next() {
		if p := tok.Pos; p.Offset < 0 || p.Line < 0 || p.Column < 0 {
			t.Fatalf("token %s at negative position %+v", tok, p)
		}
		got = append(got, tok.Pos)
	}
	const lim = math.MaxInt32
	at := func(offset, line, col int32) token.Pos { return token.Pos{Offset: offset, Line: line, Column: col} }
	want := []token.Pos{at(0, lim-1, lim-1), at(2, lim-1, lim), at(5, lim, 1), at(10, lim, 6), at(13, lim, 1)}
	if len(got) != len(want) {
		t.Fatalf("positions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d at %+v, want %+v", i, got[i], want[i])
		}
	}
	// The offset is narrowed the same way.
	for v, want := range map[int]int32{0: 0, lim - 1: lim - 1, lim: lim, lim + 1: lim, math.MaxInt64: lim} {
		if got := sat32(v); got != want {
			t.Errorf("sat32(%d) = %d, want %d", v, got, want)
		}
	}
}
