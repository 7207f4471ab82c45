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

// historyControlColumns are the historyControlTable (RFC 2819 16.2.1): one
// row per History describing its sampling regime.
var historyControlColumns = []mib.Column[*History]{
	{Arc: 1, Get: func(h *History) mib.Value { return mib.Int(int64(h.Index)) }},
	{Arc: 2, Get: func(h *History) mib.Value { return mib.OIDVal(dataSource) }},
	{Arc: 3, Get: func(h *History) mib.Value { return mib.Int(int64(h.Buckets)) }},
	{Arc: 4, Get: func(h *History) mib.Value { return mib.Int(int64(h.Buckets)) }}, // requested == granted here
	{Arc: 5, Get: func(h *History) mib.Value { return mib.Int(int64(h.Interval / time.Second)) }},
}

// bucket is an etherHistoryTable row, indexed by (historyControlIndex,
// sampleIndex).
type bucket struct {
	h *History
	s *HistorySample
}

// buckets lists every bucket still held, history by history, oldest first.
func (p *Probe) buckets() []bucket {
	var rows []bucket
	for _, h := range p.histories {
		for i := range h.samples {
			rows = append(rows, bucket{h, &h.samples[i]})
		}
	}
	return rows
}

// Columns of etherHistoryEntry: 1 index, 2 sampleIndex, 3 intervalStart,
// 5 octets, 6 pkts, 7 broadcast, 9 crcAlign, 15 utilization (in hundredths
// of a percent, as an integer).
var historyColumns = []mib.Column[bucket]{
	{Arc: 1, Get: func(b bucket) mib.Value { return mib.Int(int64(b.h.Index)) }},
	{Arc: 2, Get: func(b bucket) mib.Value { return mib.Int(int64(b.s.Index)) }},
	{Arc: 3, Get: func(b bucket) mib.Value { return mib.Ticks(uint64(b.s.IntervalStart.Milliseconds() / 10)) }},
	{Arc: 5, Get: func(b bucket) mib.Value { return mib.Counter(b.s.Octets) }},
	{Arc: 6, Get: func(b bucket) mib.Value { return mib.Counter(b.s.Pkts) }},
	{Arc: 7, Get: func(b bucket) mib.Value { return mib.Counter(b.s.BroadcastPkts) }},
	{Arc: 9, Get: func(b bucket) mib.Value { return mib.Counter(b.s.CRCAlignErr) }},
	{Arc: 15, Get: func(b bucket) mib.Value { return mib.Int(int64(b.s.Utilization * 100)) }},
}
