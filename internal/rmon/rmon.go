// Package rmon implements a remote network monitoring probe after RFC 2819:
// the statistics, history, alarm, event, host and matrix groups, fed by a
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
	statsEntry   = mib.RMONRoot.Append(1, 1, 1) // etherStatsEntry
	historyEntry = mib.RMONRoot.Append(2, 2, 1) // etherHistoryEntry
	alarmEntry   = mib.RMONRoot.Append(3, 1, 1) // alarmEntry
	eventEntry   = mib.RMONRoot.Append(9, 1, 1) // eventEntry
)

// EtherStats mirrors the etherStatsTable counters.
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
	Collisions     uint64
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

	histories   []*History
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

// UtilizationPercent estimates instantaneous utilization from a delta of
// octets over the window, as etherHistory does.
func UtilizationPercent(deltaOctets uint64, window time.Duration, rateBps int64) float64 {
	if window <= 0 || rateBps <= 0 {
		return 0
	}
	return float64(deltaOctets*8) / (window.Seconds() * float64(rateBps)) * 100
}

// Register exposes the probe's groups in a MIB tree under the standard RMON
// OIDs, with etherStats index 1 (single data source).
func (p *Probe) Register(tree *mib.Tree) {
	tree.RegisterSubtree(statsEntry, func() []mib.Entry {
		s := p.Stats
		s.Collisions = p.Seg.Stats().Deferrals // arbitration conflicts stand in for collisions
		cols := []struct {
			col uint32
			val mib.Value
		}{
			{1, mib.Int(1)},
			{2, mib.OIDVal(mib.IfEntry.Append(1, 1))}, // dataSource: ifIndex.1
			{3, mib.Counter(s.DropEvents)},
			{4, mib.Counter(s.Octets)},
			{5, mib.Counter(s.Pkts)},
			{6, mib.Counter(s.BroadcastPkts)},
			{7, mib.Counter(s.MulticastPkts)},
			{8, mib.Counter(s.CRCAlignErrors)},
			{9, mib.Counter(s.Undersize)},
			{10, mib.Counter(s.Oversize)},
			{11, mib.Counter(s.Fragments)},
			{12, mib.Counter(s.Jabbers)},
			{13, mib.Counter(s.Collisions)},
			{14, mib.Counter(s.Pkts64)},
			{15, mib.Counter(s.Pkts65to127)},
			{16, mib.Counter(s.Pkts128to255)},
			{17, mib.Counter(s.Pkts256to511)},
			{18, mib.Counter(s.Pkts512to1023)},
			{19, mib.Counter(s.Pkts1024to1518)},
		}
		entries := make([]mib.Entry, len(cols))
		for i, c := range cols {
			entries[i] = mib.Entry{OID: statsEntry.Append(c.col, 1), Value: c.val}
		}
		return entries
	})
	tree.RegisterSubtree(mib.RMONRoot.Append(2, 1, 1), p.historyControlEntries)
	tree.RegisterSubtree(historyEntry, p.historyEntries)
	tree.RegisterSubtree(alarmEntry, p.alarmEntries)
	tree.RegisterSubtree(hostEntry, p.hostEntries)
	tree.RegisterSubtree(matrixEntry, p.matrixEntries)
	tree.RegisterSubtree(eventEntry, p.eventEntries)
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

func (p *Probe) eventEntries() []mib.Entry {
	var entries []mib.Entry
	for col := uint32(1); col <= 4; col++ {
		for _, e := range p.events {
			var v mib.Value
			switch col {
			case 1:
				v = mib.Int(int64(e.Index))
			case 2:
				v = mib.Str(e.Description)
			case 3:
				switch {
				case e.Log && e.Trap:
					v = mib.Int(4) // log-and-trap
				case e.Trap:
					v = mib.Int(3)
				case e.Log:
					v = mib.Int(2)
				default:
					v = mib.Int(1)
				}
			case 4:
				v = mib.Ticks(uint64(e.LastTimeSent.Milliseconds() / 10))
			}
			entries = append(entries, mib.Entry{OID: eventEntry.Append(col, uint32(e.Index)), Value: v})
		}
	}
	return entries
}
