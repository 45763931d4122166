package lexer

import (
	"testing"

	"reclose/internal/progs"
)

// FuzzLexer checks that the scanner never panics and always terminates
// on arbitrary byte input: hostile source is reported through []*Error,
// not through a crash. Lexical errors are expected and fine.
func FuzzLexer(f *testing.F) {
	for _, seed := range []string{
		progs.FigureP,
		progs.FigureQ,
		progs.ProducerConsumer,
		progs.DeadlockProne,
		progs.AssertViolation,
		progs.Router,
		progs.Philosophers(3),
		"",
		"proc p() { var x = 0; }",
		"// comment only\n",
		"chan c[2]; env chan c;",
		"\"unterminated",
		"/* unterminated block",
		"!@#$%^&*()\x00\xff",
		"proc p() { if (x == 1) { send(c, x); } else { VS_toss(1); } }",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		toks, errs := Scan(src)
		// Every token must carry a position inside the input, and every
		// error must render.
		for _, tok := range toks {
			if tok.Pos.Offset < 0 || int(tok.Pos.Offset) > len(src) {
				t.Fatalf("token %s at offset %d outside input of %d bytes", tok.Kind, tok.Pos.Offset, len(src))
			}
		}
		for _, e := range errs {
			if e == nil {
				t.Fatal("Scan returned a nil error")
			}
			_ = e.Error()
		}
	})
}
