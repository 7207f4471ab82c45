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
// One rule covers the registry, its histograms and the Tracer alike: they
// belong to one kernel's goroutine, and none of them is safe for concurrent
// use. Every EnableTelemetry call site binds one registry to one kernel,
// whose cooperative scheduler serializes every writer; readers are plain
// loads of fields that kernel writes, so a registry is read where its
// kernel is not running: after the run, or from one of the kernel's own
// events. Parallel runs (the experiment harness's workers) each build
// their own.
package telemetry

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
	counts []uint64
	count  uint64
	sum    float64
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
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns total observations; zero on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observed values; zero on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
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
	return h.counts[i]
}

// Name returns the registered name; empty on a nil histogram.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Registry owns a set of named instruments, exported in registration
// order. A nil *Registry is the disabled layer: registration no-ops,
// lookups and Histogram return nil.
type Registry struct {
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
// place in the export order.
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
	r.put(name, instrument{c: &Counter{name: name, read: read}})
}

// GaugeFunc registers read as the gauge called name; registering a name
// again rebinds it. A nil registry registers nothing.
func (r *Registry) GaugeFunc(name string, read func() float64) {
	if r == nil {
		return
	}
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
	if i, ok := r.index[name]; ok && r.rows[i].h != nil {
		return r.rows[i].h
	}
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.put(name, instrument{h: h})
	return h
}

// Each visits every instrument in registration order. Exactly one of the
// callback's pointers is non-nil per call. A nil registry visits nothing.
// fn — and any reader it calls — may use the registry; an instrument it
// registers is not visited.
func (r *Registry) Each(fn func(c *Counter, g *Gauge, h *Histogram)) {
	if r == nil {
		return
	}
	for _, in := range r.rows {
		fn(in.c, in.g, in.h)
	}
}

// Len reports how many instruments are registered; zero on nil.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.rows)
}
