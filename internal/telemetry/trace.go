package telemetry

import "time"

// SpanRecord is one retained span: an interval of virtual time with a name,
// an optional tag (e.g. the host being polled or the path being measured),
// and a parent link for nesting. End < 0 marks a span still open.
type SpanRecord struct {
	ID     int64
	Parent int64 // 0 for a root span
	Name   string
	Tag    string
	Start  time.Duration
	End    time.Duration
}

// Open reports whether the span has not ended yet.
func (r SpanRecord) Open() bool { return r.End < 0 }

// Duration returns End-Start, or zero while the span is open.
func (r SpanRecord) Duration() time.Duration {
	if r.End < 0 {
		return 0
	}
	return r.End - r.Start
}

// Tracer retains spans in a fixed ring: the newest spans survive, the
// oldest are overwritten. Begin/End write into preallocated slots and never
// allocate. A Tracer belongs to one simulation kernel — the cooperative
// scheduler serializes all calls — and is not safe for concurrent use from
// multiple OS threads.
type Tracer struct {
	name string
	ring []SpanRecord
	seq  int64 // ids handed out so far; next id is seq+1
}

// DefaultTraceDepth is the ring capacity NewTracer uses for capacity <= 0.
const DefaultTraceDepth = 1024

// NewTracer returns a tracer retaining up to capacity spans.
func NewTracer(name string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &Tracer{name: name, ring: make([]SpanRecord, capacity)}
}

// Span is a value handle to a record in a tracer's ring. The zero Span is
// valid and disabled: Child returns another disabled span, End no-ops.
type Span struct {
	t  *Tracer
	id int64
}

// Begin opens a root span at virtual time now. A nil tracer returns a
// disabled span.
func (t *Tracer) Begin(name, tag string, now time.Duration) Span {
	return t.open(0, name, tag, now)
}

// Child opens a span nested under s at virtual time now. On a disabled
// span it returns another disabled span.
func (s Span) Child(name, tag string, now time.Duration) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.open(s.id, name, tag, now)
}

func (t *Tracer) open(parent int64, name, tag string, now time.Duration) Span {
	if t == nil {
		return Span{}
	}
	t.seq++
	id := t.seq
	t.ring[(id-1)%int64(len(t.ring))] = SpanRecord{
		ID: id, Parent: parent, Name: name, Tag: tag, Start: now, End: -1,
	}
	return Span{t: t, id: id}
}

// End closes the span at virtual time now. If the span's slot has been
// overwritten by newer spans (ring eviction) the call no-ops; ending a
// disabled or already-ended span also no-ops.
func (s Span) End(now time.Duration) {
	if s.t == nil {
		return
	}
	slot := &s.t.ring[(s.id-1)%int64(len(s.t.ring))]
	if slot.ID == s.id && slot.End < 0 {
		slot.End = now
	}
}

// Len reports how many spans are currently retained; zero on nil.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.seq < int64(len(t.ring)) {
		return int(t.seq)
	}
	return len(t.ring)
}

// Total reports how many spans were ever begun (retained or evicted).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Each visits retained spans oldest-first, stopping early when fn returns
// false. The records are copies; mutating them does not affect the ring.
func (t *Tracer) Each(fn func(SpanRecord) bool) {
	if t == nil {
		return
	}
	first := int64(1)
	if t.seq > int64(len(t.ring)) {
		first = t.seq - int64(len(t.ring)) + 1
	}
	for id := first; id <= t.seq; id++ {
		if !fn(t.ring[(id-1)%int64(len(t.ring))]) {
			return
		}
	}
}
