// Package telemetry is the monitor-of-the-monitor: a self-measurement
// layer that lets every monitor instantiation report its own fidelity,
// intrusiveness, and scalability numbers (§4.3) live, instead of requiring
// an ad-hoc experiment per question.
//
// Three rules shape the design:
//
//   - Sim-time aware. Instruments never read the wall clock; every
//     timestamped operation takes the current virtual time explicitly, so
//     instrumented runs stay bit-for-bit reproducible and the
//     simdeterminism analyzer covers this package like any other
//     simulation-facing one.
//
//   - Free when off. Every instrument method is nil-safe: a nil *Counter,
//     *Gauge, *Histogram, *Tracer, or *Registry no-ops at the cost of one
//     pointer test — no allocation, no branch on a config struct, no
//     interface call. Components hold typed instrument pointers that stay
//     nil until EnableTelemetry is called, so the uninstrumented hot path
//     is unchanged (asserted by benchmark: 0 B/op, single-digit ns/op).
//
//   - Cheap when on. Counters and gauges are single atomic operations;
//     histograms are fixed-bucket (chosen at registration) with a linear
//     scan over a handful of bounds; spans write into a preallocated ring.
//     Nothing on an instrument hot path allocates.
//
// Counters, gauges, and histograms are safe for concurrent use from
// multiple OS threads (the experiment harness runs kernels in parallel
// goroutines). Tracers belong to one kernel, whose cooperative scheduler
// already serializes all Begin/End calls.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one. A nil counter no-ops.
//
//perf:noalloc
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. A nil counter no-ops.
//
//perf:noalloc
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; zero on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered name; empty on a nil counter.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a last-value-wins float instrument (e.g. an open-breaker
// fraction, a live intrusiveness figure in bits/s).
type Gauge struct {
	name string
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set records v. A nil gauge no-ops.
//
//perf:noalloc
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set; zero on a nil or never-set gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
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
//
//perf:noalloc
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

// Registry owns a set of named instruments. Registration (Counter, Gauge,
// Histogram) is mutex-guarded and idempotent by name; the instruments it
// returns are then used lock-free. A nil *Registry is the disabled layer:
// it hands out nil instruments, which no-op everywhere.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	order  []string // registration order, for deterministic export
	kinds  map[string]byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		kinds:  make(map[string]byte),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (disabled) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counts[name] = c
	r.order = append(r.order, name)
	r.kinds[name] = 'c'
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// A nil registry returns a nil (disabled) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	r.order = append(r.order, name)
	r.kinds[name] = 'g'
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket bounds on first use (later calls ignore
// bounds). A nil registry returns a nil (disabled) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.hists[name] = h
	r.order = append(r.order, name)
	r.kinds[name] = 'h'
	return h
}

// Each visits every instrument in registration order. Exactly one of the
// callback's pointers is non-nil per call. A nil registry visits nothing.
func (r *Registry) Each(fn func(c *Counter, g *Gauge, h *Histogram)) {
	if r == nil {
		return
	}
	type row struct {
		c *Counter
		g *Gauge
		h *Histogram
	}
	r.mu.Lock()
	rows := make([]row, len(r.order))
	for i, name := range r.order {
		switch r.kinds[name] {
		case 'c':
			rows[i].c = r.counts[name]
		case 'g':
			rows[i].g = r.gauges[name]
		case 'h':
			rows[i].h = r.hists[name]
		}
	}
	r.mu.Unlock()
	for _, rw := range rows {
		fn(rw.c, rw.g, rw.h)
	}
}

// Len reports how many instruments are registered; zero on nil.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}
