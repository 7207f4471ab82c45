package rmon

import (
	"time"

	"repro/internal/mib"
	"repro/internal/sim"
)

// HistorySample is one bucket of the etherHistory table.
type HistorySample struct {
	Index         int
	IntervalStart time.Duration
	Octets        uint64
	Pkts          uint64
	BroadcastPkts uint64
	CRCAlignErr   uint64
	Utilization   float64 // percent
}

// History is a historyControl row: periodic sampling of the segment into a
// bounded ring of buckets.
type History struct {
	Index    int
	Interval time.Duration
	Buckets  int

	samples []HistorySample
	nextIdx int
	last    EtherStats
	probe   *Probe
}

// AddHistory starts periodic sampling with the given interval and bucket
// count (oldest buckets are discarded, as the MIB specifies).
//
//lint:allow unusedexport test-pinned by TestHistorySampling, TestHistoryControlTableExposed and TestRegisterExposesTables; retire together with the history group
func (p *Probe) AddHistory(interval time.Duration, buckets int) *History {
	h := &History{
		Index:    len(p.histories) + 1,
		Interval: interval,
		Buckets:  buckets,
		probe:    p,
		last:     p.Stats,
	}
	p.histories = append(p.histories, h)
	p.Node.Spawn("rmon-history", func(proc *sim.Proc) {
		for {
			proc.Sleep(h.Interval)
			h.sample(proc.Now())
		}
	})
	return h
}

func (h *History) sample(now time.Duration) {
	cur := h.probe.Stats
	h.nextIdx++
	s := HistorySample{
		Index:         h.nextIdx,
		IntervalStart: now - h.Interval,
		Octets:        cur.Octets - h.last.Octets,
		Pkts:          cur.Pkts - h.last.Pkts,
		BroadcastPkts: cur.BroadcastPkts - h.last.BroadcastPkts,
		CRCAlignErr:   cur.CRCAlignErrors - h.last.CRCAlignErrors,
	}
	s.Utilization = UtilizationPercent(s.Octets, h.Interval, h.probe.Seg.Config().RateBps)
	h.last = cur
	h.samples = append(h.samples, s)
	if len(h.samples) > h.Buckets {
		h.samples = h.samples[len(h.samples)-h.Buckets:]
	}
}

// historyControlEntries exposes the historyControlTable (RFC 2819 16.2.1):
// one row per History describing its sampling regime.
func (p *Probe) historyControlEntries() []mib.Entry {
	var entries []mib.Entry
	for col := uint32(1); col <= 5; col++ {
		for _, h := range p.histories {
			var v mib.Value
			switch col {
			case 1:
				v = mib.Int(int64(h.Index))
			case 2:
				v = mib.OIDVal(mib.IfEntry.Append(1, 1)) // dataSource
			case 3, 4:
				v = mib.Int(int64(h.Buckets)) // requested == granted here
			case 5:
				v = mib.Int(int64(h.Interval / time.Second))
			}
			entries = append(entries, mib.Entry{
				OID:   mib.RMONRoot.Append(2, 1, 1, col, uint32(h.Index)),
				Value: v,
			})
		}
	}
	return entries
}

func (p *Probe) historyEntries() []mib.Entry {
	var entries []mib.Entry
	// Columns of etherHistoryEntry: 1 index, 2 sampleIndex, 3 intervalStart,
	// 4 dropEvents(0), 5 octets, 6 pkts, 7 broadcast, 9 crcAlign,
	// 15 utilization (in hundredths of a percent, as an integer).
	type colDef struct {
		col uint32
		get func(h *History, s HistorySample) mib.Value
	}
	cols := []colDef{
		{1, func(h *History, s HistorySample) mib.Value { return mib.Int(int64(h.Index)) }},
		{2, func(h *History, s HistorySample) mib.Value { return mib.Int(int64(s.Index)) }},
		{3, func(h *History, s HistorySample) mib.Value {
			return mib.Ticks(uint64(s.IntervalStart.Milliseconds() / 10))
		}},
		{5, func(h *History, s HistorySample) mib.Value { return mib.Counter(s.Octets) }},
		{6, func(h *History, s HistorySample) mib.Value { return mib.Counter(s.Pkts) }},
		{7, func(h *History, s HistorySample) mib.Value { return mib.Counter(s.BroadcastPkts) }},
		{9, func(h *History, s HistorySample) mib.Value { return mib.Counter(s.CRCAlignErr) }},
		{15, func(h *History, s HistorySample) mib.Value { return mib.Int(int64(s.Utilization * 100)) }},
	}
	for _, c := range cols {
		for _, h := range p.histories {
			for _, s := range h.samples {
				oid := historyEntry.Append(c.col, uint32(h.Index), uint32(s.Index))
				entries = append(entries, mib.Entry{OID: oid, Value: c.get(h, s)})
			}
		}
	}
	return entries
}
