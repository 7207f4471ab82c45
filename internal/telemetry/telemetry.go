// Package telemetry is the monitor-of-the-monitor: a self-measurement
// layer that lets every monitor instantiation report its own fidelity,
// intrusiveness, and scalability numbers (§4.3) live, instead of requiring
// an ad-hoc experiment per question.
//
// Counts and last values are pulled, not pushed. A component already keeps
// the number in a plain field (snmp.ClientStats, director.Stats,
// Database.Records, ...) that its experiments and tests read as the truth;
// its EnableTelemetry registers a reader — a name and a func that returns
// the field — and the registry calls it when it is exported or looked up.
// The field is the only copy, so nothing on a hot path knows telemetry
// exists and the two can never disagree.
//
// Readers are plain loads of fields their kernel writes, so a registry is
// read where its kernel is not running: after the run, or from one of the
// kernel's own events (the rule the Tracer already imposes). That is also
// why counters need no atomics: every EnableTelemetry call site binds one
// registry to one kernel, and the cooperative scheduler serializes the
// writers.
//
// Histograms and spans have no plain twin and stay push instruments:
//
//   - Sim-time aware. They never read the wall clock; every timestamped
//     operation takes the current virtual time explicitly, so instrumented
//     runs stay bit-for-bit reproducible and the simdeterminism analyzer
//     covers this package like any other simulation-facing one.
//
//   - Free when off. A nil *Histogram, *Tracer, or *Registry no-ops at the
//     cost of one pointer test, and a nil registry makes every
//     EnableTelemetry a no-op.
//
//   - Cheap when on. Histograms are fixed-bucket (chosen at registration)
//     with a linear scan over a handful of bounds; spans write into a
//     preallocated ring. Neither allocates.
//
// Registration and histograms are safe for concurrent use from multiple OS
// threads (the experiment harness runs kernels in parallel goroutines).
// Tracers belong to one kernel, whose cooperative scheduler already
// serializes all Begin/End calls.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a registered event count: a name and the reader that fetches
// the count from the component that owns it.
type Counter struct {
	name string
	read func() uint64
}

// Value reads the current count; zero on a nil counter (a name the
// registry does not hold).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.read()
}

// Name returns the registered name; empty on a nil counter.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a registered current value (e.g. an open-breaker fraction, a
// queue depth, a live intrusiveness figure in bits/s): a name and the
// reader that fetches it from its owner.
type Gauge struct {
	name string
	read func() float64
}

// Value reads the current value; zero on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.read()
}

// Name returns the registered name; empty on a nil gauge.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Histogram counts observations into fixed buckets chosen at registration.
// Bucket i counts observations <= Bounds[i]; one implicit overflow bucket
// counts the rest. There is deliberately no dynamic resizing: the bucket
// array is allocated once and Observe only touches preallocated memory.
type Histogram struct {
	name   string
	bounds []float64 // ascending upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits accumulator, CAS-updated
}

// Observe records v into its bucket. A nil histogram no-ops.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns total observations; zero on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; zero on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the bucket upper bounds (not a copy — do not mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// BucketCount returns the count of bucket i, where i == len(Bounds())
// addresses the overflow bucket.
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i].Load()
}

// Name returns the registered name; empty on a nil histogram.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Registry owns a set of named instruments, exported in registration
// order. Registration and lookup are mutex-guarded; the mutex is never held
// while a reader runs. A nil *Registry is the disabled layer: registration
// no-ops, lookups and Histogram return nil.
type Registry struct {
	mu    sync.Mutex   //lint:allow mutex guards the table against registration from parallel experiment goroutines; never held while a reader runs
	rows  []instrument // registration order, for deterministic export
	index map[string]int
}

// instrument is one registered row; exactly one field is non-nil.
type instrument struct {
	c *Counter
	g *Gauge
	h *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// put stores in under name: a new name is appended, a known one keeps its
// place in the export order. The caller holds r.mu.
func (r *Registry) put(name string, in instrument) {
	if i, ok := r.index[name]; ok {
		r.rows[i] = in
		return
	}
	r.index[name] = len(r.rows)
	r.rows = append(r.rows, in)
}

// get returns the row registered under name; the zero row when there is
// none or the registry is nil.
func (r *Registry) get(name string) instrument {
	if r == nil {
		return instrument{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		return r.rows[i]
	}
	return instrument{}
}

// CounterFunc registers read as the counter called name. read must return
// a count its owner only ever increases; registering a name again rebinds
// it. A nil registry registers nothing.
func (r *Registry) CounterFunc(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.put(name, instrument{c: &Counter{name: name, read: read}})
}

// GaugeFunc registers read as the gauge called name; registering a name
// again rebinds it. A nil registry registers nothing.
func (r *Registry) GaugeFunc(name string, read func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.put(name, instrument{g: &Gauge{name: name, read: read}})
}

// Counter looks up the counter registered under name; nil (which reads
// zero) when there is none.
func (r *Registry) Counter(name string) *Counter { return r.get(name).c }

// Gauge looks up the gauge registered under name; nil (which reads zero)
// when there is none.
func (r *Registry) Gauge(name string) *Gauge { return r.get(name).g }

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds on first use (later calls ignore
// bounds). A nil registry returns a nil (disabled) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok && r.rows[i].h != nil {
		return r.rows[i].h
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.put(name, instrument{h: h})
	return h
}

// Each visits every instrument in registration order. Exactly one of the
// callback's pointers is non-nil per call. A nil registry visits nothing.
// The rows are copied out first: fn — and any reader it calls — runs with
// the registry unlocked.
func (r *Registry) Each(fn func(c *Counter, g *Gauge, h *Histogram)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rows := append([]instrument(nil), r.rows...)
	r.mu.Unlock()
	for _, in := range rows {
		fn(in.c, in.g, in.h)
	}
}

// Len reports how many instruments are registered; zero on nil.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rows)
}
