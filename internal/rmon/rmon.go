// Package rmon implements a remote network monitoring probe after RFC 2819:
// the statistics, alarm, event, host and matrix groups, fed by a
// promiscuous tap on a shared simulated segment and exposed through the
// SNMP agent's MIB tree.
//
// The probe is the "scalable" sensor of the paper's §5.2: it observes the
// wire passively (no load on the network until polled), can raise threshold
// traps, and — exactly as §5.2.4 found — keeps counting under load that
// makes request/response SNMP unreliable.
package rmon

import (
	"fmt"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
)

// MIB locations (RFC 2819 under mib-2.16).
var (
	statsEntry = mib.RMONRoot.Append(1, 1, 1) // etherStatsEntry
	alarmEntry = mib.RMONRoot.Append(3, 1, 1) // alarmEntry
	eventEntry = mib.RMONRoot.Append(9, 1, 1) // eventEntry

	// dataSource names what every group here samples: ifIndex.1.
	dataSource = mib.IfEntry.Append(1, 1)
)

// EtherStats mirrors the etherStatsTable counters the probe keeps itself;
// etherStatsCollisions is read off the segment.
type EtherStats struct {
	DropEvents     uint64
	Octets         uint64
	Pkts           uint64
	BroadcastPkts  uint64
	MulticastPkts  uint64
	CRCAlignErrors uint64
	Undersize      uint64
	Oversize       uint64
	Fragments      uint64
	Jabbers        uint64
	Pkts64         uint64
	Pkts65to127    uint64
	Pkts128to255   uint64
	Pkts256to511   uint64
	Pkts512to1023  uint64
	Pkts1024to1518 uint64
}

// Probe is an RMON probe attached to one shared segment.
type Probe struct {
	Node *netsim.Node
	Seg  *netsim.SharedSegment

	Stats EtherStats

	alarms      []*Alarm
	events      []*Event
	hostGroup   *HostGroup
	matrixGroup *MatrixGroup

	// TrapFunc, when set, emits threshold traps (wired to an snmp.Agent).
	TrapFunc func(generic, specific int, binds []VarBind)
}

// VarBind mirrors snmp.VarBind without importing it (avoids a cycle; the
// glue in package cots adapts).
type VarBind struct {
	OID   mib.OID
	Value mib.Value
}

// NewProbe attaches a probe on node to seg's wire.
func NewProbe(node *netsim.Node, seg *netsim.SharedSegment) *Probe {
	p := &Probe{Node: node, Seg: seg}
	seg.Tap(p.onFrame)
	return p
}

func (p *Probe) onFrame(f netsim.Frame) {
	if !p.Node.Up() {
		// A dead probe sees nothing; its counters freeze.
		return
	}
	s := &p.Stats
	s.Pkts++
	s.Octets += uint64(f.WireBytes)
	if f.Pkt.NextHop == netsim.Broadcast {
		s.BroadcastPkts++
	}
	if f.Err {
		s.CRCAlignErrors++
	}
	switch {
	case f.WireBytes < 64:
		s.Undersize++
		s.Pkts64++
	case f.WireBytes <= 127:
		s.Pkts65to127++
	case f.WireBytes <= 255:
		s.Pkts128to255++
	case f.WireBytes <= 511:
		s.Pkts256to511++
	case f.WireBytes <= 1023:
		s.Pkts512to1023++
	case f.WireBytes <= 1518:
		s.Pkts1024to1518++
	default:
		s.Oversize++
		s.Pkts1024to1518++
	}
	if p.hostGroup != nil {
		p.hostGroup.observe(f)
	}
	if p.matrixGroup != nil {
		p.matrixGroup.observe(f)
	}
}

// Register exposes the probe's groups in a MIB tree under the standard RMON
// OIDs, with etherStats index 1 (single data source).
func (p *Probe) Register(tree *mib.Tree) {
	self := []*Probe{p}
	mib.RegisterTable(tree, statsEntry, statsColumns, func() []*Probe { return self },
		func(dst mib.OID, _ *Probe) mib.OID { return append(dst, 1) })
	mib.RegisterTable(tree, alarmEntry, alarmColumns, func() []*Alarm { return p.alarms },
		func(dst mib.OID, a *Alarm) mib.OID { return append(dst, uint32(a.Index)) })
	mib.RegisterTable(tree, hostEntry, hostColumns, p.hostRows,
		func(dst mib.OID, h HostStats) mib.OID { return append(dst, uint32(h.CreationOrder)) })
	mib.RegisterTable(tree, matrixEntry, matrixColumns, p.matrixRows,
		func(dst mib.OID, r matrixRow) mib.OID { return append(dst, r.index[:]...) })
	mib.RegisterTable(tree, eventEntry, eventColumns, func() []*Event { return p.events },
		func(dst mib.OID, e *Event) mib.OID { return append(dst, uint32(e.Index)) })
}

var statsColumns = []mib.Column[*Probe]{
	{Arc: 1, Get: func(*Probe) mib.Value { return mib.Int(1) }},
	{Arc: 2, Get: func(*Probe) mib.Value { return mib.OIDVal(dataSource) }},
	{Arc: 3, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.DropEvents) }},
	{Arc: 4, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Octets) }},
	{Arc: 5, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Pkts) }},
	{Arc: 6, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.BroadcastPkts) }},
	{Arc: 7, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.MulticastPkts) }},
	{Arc: 8, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.CRCAlignErrors) }},
	{Arc: 9, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Undersize) }},
	{Arc: 10, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Oversize) }},
	{Arc: 11, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Fragments) }},
	{Arc: 12, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Jabbers) }},
	// Arbitration conflicts stand in for collisions.
	{Arc: 13, Get: func(p *Probe) mib.Value { return mib.Counter(p.Seg.Stats().Deferrals) }},
	{Arc: 14, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Pkts64) }},
	{Arc: 15, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Pkts65to127) }},
	{Arc: 16, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Pkts128to255) }},
	{Arc: 17, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Pkts256to511) }},
	{Arc: 18, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Pkts512to1023) }},
	{Arc: 19, Get: func(p *Probe) mib.Value { return mib.Counter(p.Stats.Pkts1024to1518) }},
}

// EtherStatsOID returns the OID of an etherStats column for alarm
// variables (index 1).
func EtherStatsOID(col uint32) mib.OID { return statsEntry.Append(col, 1) }

// Event is an RMON event definition: what happens when an alarm fires.
type Event struct {
	Index       int
	Description string
	// Trap requests trap emission through the probe's TrapFunc.
	Trap bool
	// Log requests an entry in the event's log.
	Log bool

	LastTimeSent time.Duration
	Entries      []LogEntry
}

// LogEntry is one logged event occurrence.
type LogEntry struct {
	At          time.Duration
	Description string
}

// AddEvent registers an event definition and returns it.
func (p *Probe) AddEvent(description string, log, trap bool) *Event {
	e := &Event{Index: len(p.events) + 1, Description: description, Log: log, Trap: trap}
	p.events = append(p.events, e)
	return e
}

func (p *Probe) fire(e *Event, alarmIdx int, rising bool, sampled int64) {
	if e == nil {
		return
	}
	now := p.Node.Network().K.Now()
	e.LastTimeSent = now
	dir := "falling"
	specific := 2
	if rising {
		dir = "rising"
		specific = 1
	}
	if e.Log {
		e.Entries = append(e.Entries, LogEntry{
			At:          now,
			Description: fmt.Sprintf("%s: alarm %d %s crossing, value %d", e.Description, alarmIdx, dir, sampled),
		})
	}
	if e.Trap && p.TrapFunc != nil {
		p.TrapFunc(6 /* enterpriseSpecific */, specific, []VarBind{
			{OID: alarmEntry.Append(1, uint32(alarmIdx)), Value: mib.Int(int64(alarmIdx))},
			{OID: alarmEntry.Append(5, uint32(alarmIdx)), Value: mib.Int(sampled)},
		})
	}
}

var eventColumns = []mib.Column[*Event]{
	{Arc: 1, Get: func(e *Event) mib.Value { return mib.Int(int64(e.Index)) }},
	{Arc: 2, Get: func(e *Event) mib.Value { return mib.Str(e.Description) }},
	{Arc: 3, Get: func(e *Event) mib.Value {
		switch {
		case e.Log && e.Trap:
			return mib.Int(4) // log-and-trap
		case e.Trap:
			return mib.Int(3)
		case e.Log:
			return mib.Int(2)
		}
		return mib.Int(1)
	}},
	{Arc: 4, Get: func(e *Event) mib.Value { return mib.Ticks(uint64(e.LastTimeSent.Milliseconds() / 10)) }},
}
