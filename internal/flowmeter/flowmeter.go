// Package flowmeter implements a passive traffic flow meter in the spirit
// of the IETF Real-time Traffic Flow Measurement (RTFM) architecture the
// paper's §2 points to ("beginning to address the need to measure
// end-to-end traffic flows"): the meter counts the packets it observes on
// tapped segments per host pair, and readers compute rates from successive
// snapshots.
//
// As a sensor it sits between the RMON probe's interface-level counters and
// NTTCP's active bursts: per-path (host-pair) specific like NTTCP, but
// passive like RMON — it can only see traffic the application actually
// sends, and only on media a meter can tap.
package flowmeter

import (
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Key identifies a flow: all traffic from one host to another, whatever
// its ports or protocol.
type Key struct {
	Src, Dst netsim.Addr
}

// Flow is the accumulated state of one metered flow.
type Flow struct {
	Key     Key
	Packets uint64
	Octets  uint64 // wire octets, framing included
}

// Meter observes tapped segments and maintains the flow table.
type Meter struct {
	k     *sim.Kernel
	flows map[Key]*Flow
}

// New creates a meter; attach it to segments with Attach.
func New(k *sim.Kernel) *Meter {
	return &Meter{k: k, flows: make(map[Key]*Flow)}
}

// Attach taps a shared segment; a meter may tap several.
func (m *Meter) Attach(seg *netsim.SharedSegment) *Meter {
	seg.Tap(m.observe)
	return m
}

func (m *Meter) observe(fr netsim.Frame) {
	if fr.Err {
		return // corrupted frames never reach the application
	}
	key := Key{Src: fr.Pkt.Src, Dst: fr.Pkt.Dst}
	f := m.flows[key]
	if f == nil {
		f = &Flow{Key: key}
		m.flows[key] = f
	}
	f.Packets++
	f.Octets += uint64(fr.WireBytes)
}

// Flows returns the table sorted by (src, dst) for determinism.
func (m *Meter) Flows() []Flow {
	out := make([]Flow, 0, len(m.flows))
	for _, f := range m.flows {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return out
}

// Reader computes flow rates from successive snapshots — the RTFM "meter
// reader" role. Each reader keeps its own previous snapshot, so multiple
// managers can read one meter independently.
type Reader struct {
	meter *Meter
	prev  map[Key]Flow
	at    time.Duration
}

// NewReader creates a reader positioned at "now" (the first Rates call
// after some traffic yields rates since this point).
func (m *Meter) NewReader() *Reader {
	r := &Reader{meter: m, at: m.k.Now()}
	r.snapshot()
	return r
}

func (r *Reader) snapshot() {
	r.prev = make(map[Key]Flow, len(r.meter.flows))
	for k, f := range r.meter.flows {
		r.prev[k] = *f
	}
}

// Rate is one flow's throughput over a reader interval.
type Rate struct {
	Key    Key
	BitsPS float64
}

// Rates returns the per-flow throughput since the previous call, omitting
// flows that carried nothing, and advances the snapshot.
func (r *Reader) Rates() []Rate {
	now := r.meter.k.Now()
	window := now - r.at
	var out []Rate
	for _, f := range r.meter.Flows() {
		prev := r.prev[f.Key]
		if f.Packets == prev.Packets || window <= 0 {
			continue
		}
		out = append(out, Rate{Key: f.Key, BitsPS: float64(f.Octets-prev.Octets) * 8 / window.Seconds()})
	}
	r.snapshot()
	r.at = now
	return out
}
