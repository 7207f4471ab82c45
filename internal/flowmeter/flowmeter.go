// Package flowmeter implements a passive traffic flow meter in the spirit
// of the IETF Real-time Traffic Flow Measurement (RTFM) architecture the
// paper's §2 points to ("beginning to address the need to measure
// end-to-end traffic flows"): rules classify packets observed on tapped
// segments into flows at a configurable granularity, and readers compute
// rates from successive snapshots.
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

// Granularity selects how much of the packet identity keys a flow.
type Granularity int

// Flow granularities.
const (
	// ByFlow keys on the full (src, dst, ports, proto) tuple.
	ByFlow Granularity = iota
	// ByHostPair aggregates all traffic between two hosts.
	ByHostPair
	// ByDst aggregates everything arriving at a destination host.
	ByDst
)

func (g Granularity) String() string {
	switch g {
	case ByFlow:
		return "flow"
	case ByHostPair:
		return "host-pair"
	case ByDst:
		return "dst"
	default:
		return "granularity?"
	}
}

// Key identifies a flow at some granularity; unused fields are zero.
type Key struct {
	Src, Dst         netsim.Addr
	SrcPort, DstPort netsim.Port
	Proto            netsim.Proto
}

// Flow is the accumulated state of one metered flow.
type Flow struct {
	Key       Key
	Packets   uint64
	Octets    uint64 // wire octets, framing included
	FirstSeen time.Duration
	LastSeen  time.Duration
}

// Rule classifies packets: all non-zero filter fields must match; matching
// packets are counted at the rule's granularity. Rules are evaluated in
// order and the first match wins (RTFM's ruleset semantics, simplified).
type Rule struct {
	// Filters; zero values match anything.
	Src     netsim.Addr
	Dst     netsim.Addr
	DstPort netsim.Port
	// Granularity of the flows this rule creates.
	Granularity Granularity
	// Ignore drops matching packets without counting (an RTFM "fail"
	// action), e.g. to exclude the monitor's own traffic.
	Ignore bool
}

func (r Rule) matches(p *netsim.Packet) bool {
	if r.Src != "" && p.Src != r.Src {
		return false
	}
	if r.Dst != "" && p.Dst != r.Dst {
		return false
	}
	if r.DstPort != 0 && p.DstPort != r.DstPort {
		return false
	}
	return true
}

func (r Rule) key(p *netsim.Packet) Key {
	switch r.Granularity {
	case ByDst:
		return Key{Dst: p.Dst}
	case ByHostPair:
		return Key{Src: p.Src, Dst: p.Dst}
	default:
		return Key{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
	}
}

// Meter observes tapped segments and maintains the flow table.
type Meter struct {
	// Matched and Unmatched count classified and default-rule packets.
	Matched   uint64
	Unmatched uint64

	k     *sim.Kernel
	rules []Rule
	flows map[Key]*Flow
}

// New creates a meter; attach it to segments with Attach and give it rules
// with AddRule. With no rules every packet is metered ByFlow.
func New(k *sim.Kernel) *Meter {
	return &Meter{k: k, flows: make(map[Key]*Flow)}
}

// AddRule appends a classification rule.
func (m *Meter) AddRule(r Rule) *Meter {
	m.rules = append(m.rules, r)
	return m
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
	p := fr.Pkt
	var key Key
	matched := false
	for _, r := range m.rules {
		if r.matches(p) {
			if r.Ignore {
				return
			}
			key = r.key(p)
			matched = true
			break
		}
	}
	if !matched {
		if len(m.rules) > 0 {
			m.Unmatched++
			return
		}
		key = Key{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
	}
	m.Matched++
	f := m.flows[key]
	if f == nil {
		f = &Flow{Key: key, FirstSeen: m.k.Now()}
		m.flows[key] = f
	}
	f.Packets++
	f.Octets += uint64(fr.WireBytes)
	f.LastSeen = m.k.Now()
}

// Flows returns the table sorted by (src, dst, ports) for determinism.
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
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		return a.DstPort < b.DstPort
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
	r := &Reader{meter: m, prev: make(map[Key]Flow), at: m.k.Now()}
	for k, f := range m.flows {
		r.prev[k] = *f
	}
	return r
}

// Rate is one flow's throughput over a reader interval.
type Rate struct {
	Key     Key
	BitsPS  float64
	Packets uint64
	Window  time.Duration
}

// Rates returns the per-flow throughput since the previous call and
// advances the snapshot.
func (r *Reader) Rates() []Rate {
	now := r.meter.k.Now()
	window := now - r.at
	var out []Rate
	for _, f := range r.meter.Flows() {
		prev := r.prev[f.Key]
		dOctets := f.Octets - prev.Octets
		dPkts := f.Packets - prev.Packets
		if dPkts == 0 || window <= 0 {
			continue
		}
		out = append(out, Rate{
			Key:     f.Key,
			BitsPS:  float64(dOctets) * 8 / window.Seconds(),
			Packets: dPkts,
			Window:  window,
		})
	}
	r.prev = make(map[Key]Flow, len(r.meter.flows))
	for k, f := range r.meter.flows {
		r.prev[k] = *f
	}
	r.at = now
	return out
}

// RateFor returns the rate of one key since the previous Rates/RateFor
// call for that key, without advancing other keys' snapshots.
//
//lint:allow unusedexport test-pinned by TestReaderRateFor; retire together
func (r *Reader) RateFor(key Key) (Rate, bool) {
	now := r.meter.k.Now()
	window := now - r.at
	f, ok := r.meter.flows[key]
	if !ok || window <= 0 {
		return Rate{}, false
	}
	prev := r.prev[key]
	dOctets := f.Octets - prev.Octets
	dPkts := f.Packets - prev.Packets
	if dPkts == 0 {
		return Rate{}, false
	}
	return Rate{Key: key, BitsPS: float64(dOctets) * 8 / window.Seconds(), Packets: dPkts, Window: window}, true
}
