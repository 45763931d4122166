package explore_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"reclose/internal/explore"
	"reclose/internal/interp"
)

// randomValidOptions draws an option set Resolve must accept: every
// field anywhere in its range, zero often, and none of the combinations
// Resolve refuses.
func randomValidOptions(rng *rand.Rand) explore.Options {
	n := rng.Intn
	o := explore.Options{
		Engine:        interp.EngineKind(n(2)),
		MaxDepth:      n(2) * n(100),
		MaxStates:     int64(n(2) * n(1000)),
		POR:           explore.PORMode(n(3)),
		NoSleep:       n(2) == 0,
		StateCache:    n(2) == 0,
		MaxIncidents:  n(2) * n(64),
		Stop:          []explore.StopCause{explore.StopNone, explore.StopViolation, explore.StopIncident}[n(3)],
		Workers:       n(6) - 2,
		SpillDepth:    n(2) * n(32),
		SnapshotSpill: n(2) == 0,
		Timeout:       time.Duration(n(2)*n(5)) * time.Second,
	}
	if o.StateCache {
		o.CacheShards = n(2) * n(32)
		o.MaxCacheBytes = int64(n(2) * n(1<<20))
	}
	o.Liveness = o.POR != explore.PORDynamic && !o.SnapshotSpill && n(2) == 0
	return o
}

// TestResolveIdempotentKeepsSetValues is Resolve's property over
// generated valid option sets: it accepts them, resolving twice is
// resolving once, and a value the caller set comes back unchanged — only
// the zero values it documents are filled, and a negative Workers.
func TestResolveIdempotentKeepsSetValues(t *testing.T) {
	fills := map[string]bool{"MaxDepth": true, "MaxIncidents": true, "SpillDepth": true}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		opt := randomValidOptions(rng)
		res, err := opt.Resolve()
		if err != nil {
			t.Fatalf("Resolve(%+v): %v", opt, err)
		}
		if again, err := res.Resolve(); err != nil || !reflect.DeepEqual(again, res) {
			t.Fatalf("Resolve is not idempotent on %+v: %+v, %v", res, again, err)
		}
		given, got := reflect.ValueOf(opt), reflect.ValueOf(res)
		for f := 0; f < given.NumField(); f++ {
			field := given.Type().Field(f)
			g, r := given.Field(f), got.Field(f)
			switch {
			case !field.IsExported():
			case field.Name == "Workers" && opt.Workers < 0:
				if res.Workers != runtime.GOMAXPROCS(0) {
					t.Fatalf("Workers %d resolved to %d, want GOMAXPROCS", opt.Workers, res.Workers)
				}
			case fills[field.Name] && g.IsZero():
				if r.IsZero() {
					t.Fatalf("Resolve left %s zero", field.Name)
				}
			case !reflect.DeepEqual(g.Interface(), r.Interface()):
				t.Fatalf("Resolve changed %s from %v to %v (options %+v)", field.Name, g, r, opt)
			}
		}
	}
}

// TestOptionsFieldsDecideTheWire makes a new Options field say whether it
// crosses a process boundary: every exported field carries a json key
// or json:"-". Callbacks and pointers must be "-", which Marshal checks.
func TestOptionsFieldsDecideTheWire(t *testing.T) {
	typ := reflect.TypeOf(explore.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag, ok := f.Tag.Lookup("json")
		if name, _, _ := strings.Cut(tag, ","); f.IsExported() && (!ok || name == "") {
			t.Errorf(`Options.%s has neither a json key nor json:"-"`, f.Name)
		}
	}
	opt := explore.Options{
		OnLeaf:     func(explore.LeafKind, []explore.Decision) {},
		Checkpoint: func(*explore.Snapshot) {},
	}
	if _, err := json.Marshal(opt); err != nil {
		t.Errorf("Options with callbacks set do not marshal: %v", err)
	}
}
