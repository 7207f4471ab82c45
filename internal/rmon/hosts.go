package rmon

import (
	"sort"

	"repro/internal/mib"
	"repro/internal/netsim"
)

// RFC 2819 groups 4 (hosts) and 6 (matrix): per-station and per-
// conversation statistics learned passively from the wire. These are the
// capabilities that let a COTS probe answer "who is talking, to whom, and
// how much" without touching the end systems.

var (
	hostEntry   = mib.RMONRoot.Append(4, 2, 1) // hostEntry
	matrixEntry = mib.RMONRoot.Append(6, 2, 1) // matrixSDEntry
)

// HostStats is one hostTable row: traffic to and from a station.
type HostStats struct {
	Addr       netsim.Addr
	InPkts     uint64 // frames addressed to the station
	OutPkts    uint64 // frames sourced by the station
	InOctets   uint64
	OutOctets  uint64
	Broadcasts uint64 // broadcasts sourced by the station
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
	src := g.host(f.Pkt.Src)
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
	key := [2]netsim.Addr{f.Pkt.Src, f.Pkt.NextHop}
	c := g.convs[key]
	if c == nil {
		c = &ConvStats{Src: f.Pkt.Src, Dst: f.Pkt.NextHop}
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

// hostEntries exposes the host group as MIB rows, indexed by discovery
// order: columns 1 addr(string), 2 inPkts, 3 outPkts, 4 inOctets,
// 5 outOctets, 6 broadcasts.
func (p *Probe) hostEntries() []mib.Entry {
	if p.hostGroup == nil {
		return nil
	}
	hosts := p.hostGroup.Hosts()
	var entries []mib.Entry
	for col := uint32(1); col <= 6; col++ {
		for _, h := range hosts {
			var v mib.Value
			switch col {
			case 1:
				v = mib.Str(string(h.Addr))
			case 2:
				v = mib.Counter(h.InPkts)
			case 3:
				v = mib.Counter(h.OutPkts)
			case 4:
				v = mib.Counter(h.InOctets)
			case 5:
				v = mib.Counter(h.OutOctets)
			case 6:
				v = mib.Counter(h.Broadcasts)
			}
			entries = append(entries, mib.Entry{
				OID:   hostEntry.Append(col, uint32(h.CreationOrder)),
				Value: v,
			})
		}
	}
	return entries
}

// matrixEntries exposes the matrix group as MIB rows indexed by the pseudo
// IPs of source and destination: columns 1 pkts, 2 octets, 3 errors.
func (p *Probe) matrixEntries() []mib.Entry {
	if p.matrixGroup == nil {
		return nil
	}
	convs := p.matrixGroup.Conversations()
	type row struct {
		idx  mib.OID
		conv ConvStats
	}
	rows := make([]row, 0, len(convs))
	for _, c := range convs {
		sip, dip := mib.PseudoIP(c.Src), mib.PseudoIP(c.Dst)
		idx := mib.OID{
			uint32(sip[0]), uint32(sip[1]), uint32(sip[2]), uint32(sip[3]),
			uint32(dip[0]), uint32(dip[1]), uint32(dip[2]), uint32(dip[3]),
		}
		rows = append(rows, row{idx, c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].idx.Cmp(rows[j].idx) < 0 })
	var entries []mib.Entry
	for col := uint32(1); col <= 3; col++ {
		for _, r := range rows {
			var v mib.Value
			switch col {
			case 1:
				v = mib.Counter(r.conv.Pkts)
			case 2:
				v = mib.Counter(r.conv.Octets)
			case 3:
				v = mib.Counter(r.conv.Errors)
			}
			entries = append(entries, mib.Entry{
				OID:   matrixEntry.Append(col).Append(r.idx...),
				Value: v,
			})
		}
	}
	return entries
}
