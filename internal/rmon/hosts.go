package rmon

import (
	"sort"

	"repro/internal/mib"
	"repro/internal/netsim"
)

// RFC 2819 groups 4 (hosts) and 6 (matrix): per-station and per-
// conversation statistics learned passively from the wire. These are the
// capabilities that let a COTS probe answer "who is talking, to whom, and
// how much" without touching the end systems. Both tables key on the
// frame's physical addresses — the transmitting station (Frame.From) and
// the receiving one (Pkt.NextHop) — so a routed packet counts against the
// router that put it on the segment, never against an off-segment origin.

var (
	hostEntry   = mib.RMONRoot.Append(4, 2, 1) // hostEntry
	matrixEntry = mib.RMONRoot.Append(6, 2, 1) // matrixSDEntry
)

// HostStats is one hostTable row: traffic to and from a station.
type HostStats struct {
	Addr       netsim.Addr
	InPkts     uint64 // frames addressed to the station
	OutPkts    uint64 // frames the station transmitted
	InOctets   uint64
	OutOctets  uint64
	Broadcasts uint64 // broadcasts the station transmitted
	// CreationOrder is the discovery index (hostTimeTable semantics).
	CreationOrder int
}

// ConvStats is one matrixSDTable row: a source->destination conversation.
type ConvStats struct {
	Src, Dst netsim.Addr
	Pkts     uint64
	Octets   uint64
	Errors   uint64
}

// HostGroup tracks per-station statistics from a probe's tap.
type HostGroup struct {
	hosts map[netsim.Addr]*HostStats
	order []netsim.Addr
}

// MatrixGroup tracks per-conversation statistics from a probe's tap.
type MatrixGroup struct {
	convs map[[2]netsim.Addr]*ConvStats
}

// EnableHosts attaches the host group to the probe's frame stream.
func (p *Probe) EnableHosts() *HostGroup {
	g := &HostGroup{hosts: make(map[netsim.Addr]*HostStats)}
	p.hostGroup = g
	return g
}

// EnableMatrix attaches the matrix group to the probe's frame stream.
func (p *Probe) EnableMatrix() *MatrixGroup {
	g := &MatrixGroup{convs: make(map[[2]netsim.Addr]*ConvStats)}
	p.matrixGroup = g
	return g
}

func (g *HostGroup) observe(f netsim.Frame) {
	src := g.host(f.From)
	src.OutPkts++
	src.OutOctets += uint64(f.WireBytes)
	if f.Pkt.NextHop == netsim.Broadcast {
		src.Broadcasts++
		return
	}
	dst := g.host(f.Pkt.NextHop)
	dst.InPkts++
	dst.InOctets += uint64(f.WireBytes)
}

func (g *HostGroup) host(a netsim.Addr) *HostStats {
	h := g.hosts[a]
	if h == nil {
		h = &HostStats{Addr: a, CreationOrder: len(g.order) + 1}
		g.hosts[a] = h
		g.order = append(g.order, a)
	}
	return h
}

// Hosts returns all stations in discovery order.
func (g *HostGroup) Hosts() []HostStats {
	out := make([]HostStats, 0, len(g.order))
	for _, a := range g.order {
		out = append(out, *g.hosts[a])
	}
	return out
}

// TopTalkers returns the n stations with the most output octets — the
// hostTopN group's most common use.
func (g *HostGroup) TopTalkers(n int) []HostStats {
	all := g.Hosts()
	sort.SliceStable(all, func(i, j int) bool { return all[i].OutOctets > all[j].OutOctets })
	if n < len(all) {
		all = all[:n]
	}
	return all
}

func (g *MatrixGroup) observe(f netsim.Frame) {
	if f.Pkt.NextHop == netsim.Broadcast {
		return
	}
	key := [2]netsim.Addr{f.From, f.Pkt.NextHop}
	c := g.convs[key]
	if c == nil {
		c = &ConvStats{Src: f.From, Dst: f.Pkt.NextHop}
		g.convs[key] = c
	}
	c.Pkts++
	c.Octets += uint64(f.WireBytes)
	if f.Err {
		c.Errors++
	}
}

// Conversations returns all rows sorted by (src, dst) for determinism.
func (g *MatrixGroup) Conversations() []ConvStats {
	out := make([]ConvStats, 0, len(g.convs))
	for _, c := range g.convs {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// hostRows are the hostTable's rows by discovery order; none until EnableHosts.
func (p *Probe) hostRows() []HostStats {
	if p.hostGroup == nil {
		return nil
	}
	return p.hostGroup.Hosts()
}

var hostColumns = []mib.Column[HostStats]{
	{Arc: 1, Get: func(h HostStats) mib.Value { return mib.Str(string(h.Addr)) }},
	{Arc: 2, Get: func(h HostStats) mib.Value { return mib.Counter(h.InPkts) }},
	{Arc: 3, Get: func(h HostStats) mib.Value { return mib.Counter(h.OutPkts) }},
	{Arc: 4, Get: func(h HostStats) mib.Value { return mib.Counter(h.InOctets) }},
	{Arc: 5, Get: func(h HostStats) mib.Value { return mib.Counter(h.OutOctets) }},
	{Arc: 6, Get: func(h HostStats) mib.Value { return mib.Counter(h.Broadcasts) }},
}

// matrixRow is a matrixSDTable row, indexed by source and destination pseudo IP.
type matrixRow struct {
	index [8]uint32
	conv  ConvStats
}

// matrixRows are the matrixSDTable's rows; none until EnableMatrix.
func (p *Probe) matrixRows() []matrixRow {
	if p.matrixGroup == nil {
		return nil
	}
	convs := p.matrixGroup.Conversations()
	rows := make([]matrixRow, 0, len(convs))
	for _, c := range convs {
		sip, dip := mib.PseudoIP(c.Src), mib.PseudoIP(c.Dst)
		rows = append(rows, matrixRow{conv: c, index: [8]uint32{
			uint32(sip[0]), uint32(sip[1]), uint32(sip[2]), uint32(sip[3]),
			uint32(dip[0]), uint32(dip[1]), uint32(dip[2]), uint32(dip[3]),
		}})
	}
	sort.Slice(rows, func(i, j int) bool { return mib.OID(rows[i].index[:]).Cmp(rows[j].index[:]) < 0 })
	return rows
}

var matrixColumns = []mib.Column[matrixRow]{
	{Arc: 1, Get: func(r matrixRow) mib.Value { return mib.Counter(r.conv.Pkts) }},
	{Arc: 2, Get: func(r matrixRow) mib.Value { return mib.Counter(r.conv.Octets) }},
	{Arc: 3, Get: func(r matrixRow) mib.Value { return mib.Counter(r.conv.Errors) }},
}
