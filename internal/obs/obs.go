// Package obs is the observability substrate of the exploration engine:
// atomic counters and gauges, bounded histograms, and a structured JSONL
// event sink, collected behind a named Registry.
//
// The package is built around one invariant: a disabled instrument is a
// nil pointer, and every method on every instrument is a no-op on a nil
// receiver. Code under measurement therefore holds plain typed pointers
// (*Counter, *Gauge, *Histogram, *Sink) and calls them unconditionally;
// when observability is off the calls compile to a nil check and a
// return — no allocation, no atomic, no lock. A nil *Registry hands out
// nil instruments, so one nil propagates through an entire subsystem.
//
// Metrics snapshots serialize as versioned JSON with a stable field
// order (WriteMetrics); events stream as versioned JSONL (Sink). Both
// carry "v":1 so downstream tooling can evolve the schema.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// MetricsVersion is the schema version written into every metrics
// snapshot and every event line.
const MetricsVersion = 1

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value; SetMax turns it into a
// high-water mark.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (negative to decrease) — the up/down
// form used for occupancy-style values maintained from several sites,
// like outstanding distributed leases. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v is larger (a lock-free high-water
// mark). No-op on a nil receiver.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 0 and
// v == 1 lands in bucket 1's le=1... see bucketOf), so the histogram
// covers the full int64 range in 64 bounded buckets.
const histBuckets = 64

// Histogram is a bounded power-of-two histogram over int64
// observations. It never allocates after construction and every method
// is atomic, so it can be shared by concurrent writers.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     Gauge
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps an observation to its bucket index: 0 for v <= 1,
// otherwise 1 + floor(log2(v-1)), clamped to the last bucket. The upper
// bound of bucket i is 2^i (i >= 1) — a power-of-two exponential scale.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := 0
	for x := v - 1; x > 0; x >>= 1 {
		b++
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one observation. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.max.SetMax(v)
	h.buckets[bucketOf(v)].Add(1)
}

// HistTally is a Histogram's single-owner form: plain fields, no atomic
// traffic. An owner observes into its tally and adds it to the shared
// histogram when it chooses (Histogram.AddTally).
type HistTally struct {
	count, sum, max int64
	buckets         [histBuckets]int64
}

// Observe records one observation.
func (t *HistTally) Observe(v int64) {
	t.count++
	t.sum += v
	t.max = max(t.max, v)
	t.buckets[bucketOf(v)]++
}

// AddTally adds t's observations and empties t. No-op on a nil receiver
// (t is left as it is).
func (h *Histogram) AddTally(t *HistTally) {
	if h == nil || t.count == 0 {
		return
	}
	h.count.Add(t.count)
	h.sum.Add(t.sum)
	h.max.SetMax(t.max)
	for i, n := range t.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
		}
	}
	*t = HistTally{}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation (0 on a nil receiver).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// histSnapshot is the JSON shape of one histogram: only non-empty
// buckets are rendered, each with its inclusive upper bound.
type histSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Max     int64        `json:"max"`
	Buckets []histBucket `json:"buckets,omitempty"`
}

type histBucket struct {
	Le int64 `json:"le"` // inclusive upper bound (2^i; 1 for bucket 0)
	N  int64 `json:"n"`
}

func (h *Histogram) snapshot() histSnapshot {
	s := histSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(1)
		if i > 0 && i < 63 {
			le = int64(1) << uint(i)
		} else if i >= 63 {
			le = int64(1)<<62 - 1 + int64(1)<<62 // MaxInt64
		}
		s.Buckets = append(s.Buckets, histBucket{Le: le, N: n})
	}
	return s
}

// Registry is a named collection of instruments plus an optional event
// sink. Lookups are idempotent: asking twice for the same name returns
// the same instrument; asking a nil *Registry returns a nil instrument,
// which is the disabled no-op form.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	labels     map[string]string
	sink       *Sink
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// SetLabel attaches a string label to the registry (e.g. which engine a
// run used); labels render in the metrics snapshot. No-op on a nil
// receiver.
func (r *Registry) SetLabel(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.labels == nil {
		r.labels = make(map[string]string)
	}
	r.labels[key] = value
	r.mu.Unlock()
}

// Label returns the named label ("" when absent or on a nil receiver).
func (r *Registry) Label(key string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.labels[key]
}

// Counter returns the named counter, creating it on first use (nil on a
// nil receiver).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// receiver).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil
// on a nil receiver).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// SetSink attaches a JSONL event sink (nil detaches). No-op on a nil
// receiver.
func (r *Registry) SetSink(s *Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Sink returns the attached event sink (nil if none, nil on a nil
// receiver — and a nil *Sink is itself a no-op).
func (r *Registry) Sink() *Sink {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink
}

// metricsJSON is the serialized form of a registry snapshot. Field
// order is fixed by the struct; map keys render sorted (encoding/json),
// so the output is byte-stable for a given registry state.
type metricsJSON struct {
	V          int                     `json:"v"`
	Labels     map[string]string       `json:"labels,omitempty"`
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]histSnapshot `json:"histograms,omitempty"`
}

// WriteMetrics renders the registry as versioned, indented JSON with a
// stable field order: the "v" tag first, then counters, gauges, and
// histograms, each sorted by name. A nil receiver writes an empty
// versioned document, so a disabled run still produces parseable
// output.
func (r *Registry) WriteMetrics(w io.Writer) error {
	doc := metricsJSON{V: MetricsVersion, Counters: map[string]int64{}}
	if r != nil {
		r.mu.Lock()
		if len(r.labels) > 0 {
			doc.Labels = make(map[string]string, len(r.labels))
			for k, v := range r.labels {
				doc.Labels[k] = v
			}
		}
		for name, c := range r.counters {
			doc.Counters[name] = c.Load()
		}
		if len(r.gauges) > 0 {
			doc.Gauges = make(map[string]int64, len(r.gauges))
			for name, g := range r.gauges {
				doc.Gauges[name] = g.Load()
			}
		}
		if len(r.histograms) > 0 {
			doc.Histograms = make(map[string]histSnapshot, len(r.histograms))
			for name, h := range r.histograms {
				doc.Histograms[name] = h.snapshot()
			}
		}
		r.mu.Unlock()
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// String renders a compact one-line summary ("name=value ..."), for
// debugging.
func (r *Registry) String() string {
	if r == nil {
		return "obs: disabled"
	}
	var out []byte
	for i, name := range r.CounterNames() {
		if i > 0 {
			out = append(out, ' ')
		}
		out = fmt.Appendf(out, "%s=%d", name, r.Counter(name).Load())
	}
	return string(out)
}
