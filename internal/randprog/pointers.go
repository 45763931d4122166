package randprog

import (
	"fmt"
	"math/rand"
	"strings"
)

// Pointers returns the source text of a random one-process open program
// over a fixed set of scalars, two pointers and an array: may-alias
// stores, weak and strong updates through pointers, pointer arithmetic,
// stores through env-dependent pointers and unreachable code. Each seed
// of r gives the same text. None of Generate's guarantees hold: the
// program compiles, but it may not close (a store through an
// env-dependent pointer is refused), and run it may trap or diverge.
func Pointers(r *rand.Rand) string {
	scalars := []string{"a", "b", "c", "x"}
	pick := func(s []string) string { return s[r.Intn(len(s))] }
	expr := func() string {
		switch r.Intn(6) {
		case 0:
			return fmt.Sprint(r.Intn(5))
		case 1:
			return "*" + pick([]string{"p", "q"})
		case 2:
			return "arr[" + pick(scalars) + "]"
		case 3:
			return pick(scalars) + " + " + pick(scalars)
		default:
			return pick(scalars)
		}
	}
	var b strings.Builder
	var block func(depth, n int)
	block = func(depth, n int) {
		ind := strings.Repeat("    ", depth)
		for i := 0; i < n; i++ {
			switch k := r.Intn(14); {
			case k < 3:
				fmt.Fprintf(&b, "%s%s = %s;\n", ind, pick(scalars), expr())
			case k == 3:
				fmt.Fprintf(&b, "%s%s = &%s;\n", ind, pick([]string{"p", "q"}), pick(scalars))
			case k == 4:
				fmt.Fprintf(&b, "%s*%s = %s;\n", ind, pick([]string{"p", "q"}), expr())
			case k == 5:
				fmt.Fprintf(&b, "%sarr[%s] = %s;\n", ind, pick(scalars), expr())
			case k == 6:
				fmt.Fprintf(&b, "%srecv(%s, %s);\n", ind, pick([]string{"in", "pipe"}), pick(scalars))
			case k == 7:
				fmt.Fprintf(&b, "%ssend(%s, %s);\n", ind, pick([]string{"out", "pipe"}), pick(scalars))
			case k == 8:
				fmt.Fprintf(&b, "%s%s(%s, %s);\n", ind, pick([]string{"store", "copy"}), pick(scalars), pick([]string{"p", "q"}))
			case k == 9:
				fmt.Fprintf(&b, "%sq = p + %s;\n", ind, pick(scalars))
			case k == 10 && depth < 3:
				fmt.Fprintf(&b, "%swhile (%s < %d) {\n", ind, pick(scalars), r.Intn(4))
				block(depth+1, 1+r.Intn(3))
				fmt.Fprintf(&b, "%s}\n", ind)
			case k == 11 && depth < 3:
				fmt.Fprintf(&b, "%sif (%s > %s) {\n", ind, pick(scalars), expr())
				block(depth+1, 1+r.Intn(3))
				fmt.Fprintf(&b, "%s} else {\n", ind)
				block(depth+1, r.Intn(3))
				fmt.Fprintf(&b, "%s}\n", ind)
			case k == 12 && depth > 0:
				fmt.Fprintf(&b, "%sreturn;\n", ind)
			default:
				fmt.Fprintf(&b, "%svwrite(g, %s);\n%svread(g, %s);\n", ind, pick(scalars), ind, pick(scalars))
			}
		}
	}
	b.WriteString("chan in[1];\nchan out[1];\nchan pipe[2];\nshared g = 0;\nenv chan in;\nenv chan out;\nenv main.x;\n")
	b.WriteString("proc store(v, r) {\n    *r = v;\n}\n")
	b.WriteString("proc copy(v, r) {\n    var t = *r;\n    if (t > v) {\n        send(pipe, t);\n    }\n}\n")
	b.WriteString("proc main(x) {\n    var a = 0;\n    var b = 1;\n    var c = 2;\n    var arr[4];\n    var p = &a;\n    var q = &b;\n")
	block(1, 4+r.Intn(10))
	b.WriteString("}\nprocess main;\n")
	return b.String()
}
