package main

import (
	"reflect"
	"testing"

	"reclose/internal/fiveess"
	"reclose/internal/normalize"
	"reclose/internal/parser"
	"reclose/internal/progs"
	"reclose/internal/sem"
	"reclose/internal/synth"
)

// TestNormalizePostcondition: the normalized program checks clean, and
// the Info normalize.Checked kept up to date is the one a fresh check of
// it returns — what lets the front end check once. The programs are
// hashInputs', the progs programs, the 5ESS scales and the synth shapes.
func TestNormalizePostcondition(t *testing.T) {
	names, srcs := hashInputs()
	add := func(name, src string) {
		names = append(names, name)
		srcs[name] = src
	}
	for name, src := range map[string]string{
		"FigureP": progs.FigureP, "FigureQ": progs.FigureQ, "SimpleTaint": progs.SimpleTaint,
		"PathIndependent": progs.PathIndependent, "ProducerConsumer": progs.ProducerConsumer,
		"DeadlockProne": progs.DeadlockProne, "AssertViolation": progs.AssertViolation,
		"Router": progs.Router, "Interproc": progs.Interproc, "Forwarder": progs.Forwarder,
		"Philosophers": progs.Philosophers(3), "Pipeline": progs.Pipeline(3, 2),
		"RouterScaled": progs.RouterScaled(2, 2), "LossyTransfer": progs.LossyTransfer(2, 2),
	} {
		add(name, src)
	}
	for _, scale := range []string{"small", "medium", "large"} {
		add("5ess-"+scale, fiveess.Source(fiveess.Scale(scale)))
	}
	for _, shape := range []synth.Shape{synth.StraightLine, synth.Branchy, synth.Loopy, synth.ManyProcs} {
		add("synth-"+shape.String(), synth.Program(shape, 2000))
	}
	for _, name := range names {
		prog, err := parser.Parse([]byte(srcs[name]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kept, err := sem.Check(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		normalize.Checked(prog, kept)
		fresh, err := sem.Check(prog)
		if err != nil {
			t.Errorf("%s: the normalized program fails the check: %v", name, err)
			continue
		}
		for _, f := range []struct {
			field      string
			kept, want any
		}{
			{"ProcVars", kept.ProcVars, fresh.ProcVars},
			{"Arrays", kept.Arrays, fresh.Arrays},
			{"EnvParams", kept.EnvParams, fresh.EnvParams},
			{"EnvChans", kept.EnvChans, fresh.EnvChans},
			{"Objects", kept.Objects, fresh.Objects},
			{"Procs", kept.Procs, fresh.Procs},
		} {
			if !reflect.DeepEqual(f.kept, f.want) {
				t.Errorf("%s: Info.%s after normalize.Checked differs from a fresh check's", name, f.field)
			}
		}
	}
}
