package mib

import (
	"hash/fnv"
	"sort"

	"repro/internal/netsim"
	"repro/internal/rstream"
)

// Well-known OID prefixes (RFC 1213 and friends).
//
//lint:allow unusedexport RFC 1213 group OIDs: the MIB-II arc stays complete though nothing registers under mgmt, system or tcp by name
var (
	Mgmt       = MustOID("1.3.6.1.2.1")
	System     = MustOID("1.3.6.1.2.1.1")
	SysDescr   = MustOID("1.3.6.1.2.1.1.1.0")
	SysUpTime  = MustOID("1.3.6.1.2.1.1.3.0")
	SysName    = MustOID("1.3.6.1.2.1.1.5.0")
	Interfaces = MustOID("1.3.6.1.2.1.2")
	IfNumber   = MustOID("1.3.6.1.2.1.2.1.0")
	IfEntry    = MustOID("1.3.6.1.2.1.2.2.1")
	TCP        = MustOID("1.3.6.1.2.1.6")
	TCPConn    = MustOID("1.3.6.1.2.1.6.13.1")
	UDPGroup   = MustOID("1.3.6.1.2.1.7")
	RMONRoot   = MustOID("1.3.6.1.2.1.16")
	Enterprise = MustOID("1.3.6.1.4.1.5307") // private arc for this stack
)

// PseudoIP derives a stable 4-byte pseudo IP address for a simulated node
// name, so MIB table indices look like real tcpConnTable indices.
func PseudoIP(a netsim.Addr) []byte {
	h := fnv.New32a()
	h.Write([]byte(a))
	s := h.Sum(nil)
	// Keep it in 10/8 to look plausible and avoid 0/255 first octet rules.
	s[0] = 10
	return s
}

// NodeView builds a MIB-II tree over a live simulated node: system group,
// interfaces table, UDP counters, and a tcpConnTable fed by registered
// stream listeners. Values are computed at query time from the node's live
// counters, matching real agent behaviour (including Counter32 wrap).
type NodeView struct {
	Tree *Tree
	node *netsim.Node

	listeners []*rstream.Listener
}

// NewNodeView constructs the view and registers all groups.
func NewNodeView(n *netsim.Node) *NodeView {
	v := &NodeView{Tree: NewTree(), node: n}
	v.registerSystem()
	v.registerInterfaces()
	v.registerIP()
	v.registerUDP()
	v.registerTCP()
	v.registerIfX()
	return v
}

// AddListener exposes a stream listener's connections in tcpConnTable.
func (v *NodeView) AddListener(l *rstream.Listener) { v.listeners = append(v.listeners, l) }

func (v *NodeView) registerSystem() {
	n := v.node
	v.Tree.RegisterConst(SysDescr, Str("repro simulated agent ("+string(n.Name)+", "+n.Role.String()+")"))
	v.Tree.RegisterConst(MustOID("1.3.6.1.2.1.1.2.0"), OIDVal(Enterprise.Append(1)))
	v.Tree.RegisterScalar(SysUpTime, func() Value {
		// TimeTicks are hundredths of a second of the host's local clock;
		// clock granularity (§5.2.4) propagates into every delta computed
		// from them.
		return Ticks(uint64(n.LocalTime().Milliseconds() / 10))
	})
	v.Tree.RegisterConst(MustOID("1.3.6.1.2.1.1.4.0"), Str("NSWC-DD repro"))
	v.Tree.RegisterConst(SysName, Str(string(n.Name)))
	v.Tree.RegisterConst(MustOID("1.3.6.1.2.1.1.6.0"), Str("simulated testbed"))
	v.Tree.RegisterConst(MustOID("1.3.6.1.2.1.1.7.0"), Int(72))
}

func (v *NodeView) registerInterfaces() {
	n := v.node
	v.Tree.RegisterScalar(IfNumber, func() Value { return Int(int64(len(n.Ifaces()))) })
	RegisterTable(v.Tree, IfEntry, ifColumns, n.Ifaces, ifIndex)
}

// ifIndex indexes ifTable and ifXTable: interfaces are numbered in attach
// order, the order Node.Ifaces returns them in.
func ifIndex(dst OID, i *netsim.Iface) OID { return append(dst, uint32(i.Index)) }

// ifColumns are the ifEntry columns this agent has (RFC 1213 ifTable).
var ifColumns = []Column[*netsim.Iface]{
	{1, func(i *netsim.Iface) Value { return Int(int64(i.Index)) }},
	{2, func(i *netsim.Iface) Value { return Str(i.Medium().Name()) }},
	{3, func(i *netsim.Iface) Value { return Int(6) }},    // ifType: ethernetCsmacd as generic
	{4, func(i *netsim.Iface) Value { return Int(1500) }}, // ifMtu
	{5, func(i *netsim.Iface) Value { return Gauge(uint64(i.SpeedBps())) }},
	{8, func(i *netsim.Iface) Value { // ifOperStatus: up(1), down(2)
		if i.Up() {
			return Int(1)
		}
		return Int(2)
	}},
	{10, func(i *netsim.Iface) Value { return Counter(i.Counters.InOctets) }},
	{11, func(i *netsim.Iface) Value { return Counter(i.Counters.InPkts) }},
	{13, func(i *netsim.Iface) Value { return Counter(i.Counters.InDiscards) }},
	{14, func(i *netsim.Iface) Value { return Counter(i.Counters.InErrors) }},
	{16, func(i *netsim.Iface) Value { return Counter(i.Counters.OutOctets) }},
	{17, func(i *netsim.Iface) Value { return Counter(i.Counters.OutPkts) }},
	{19, func(i *netsim.Iface) Value { return Counter(i.Counters.OutDiscards) }},
	{20, func(i *netsim.Iface) Value { return Counter(i.Counters.OutErrors) }},
}

func (v *NodeView) registerUDP() {
	n := v.node
	v.Tree.RegisterScalar(UDPGroup.Append(1, 0), func() Value { return Counter(n.Counters.UDPIn) })
	v.Tree.RegisterScalar(UDPGroup.Append(2, 0), func() Value { return Counter(n.Counters.NoPort) })
	v.Tree.RegisterScalar(UDPGroup.Append(4, 0), func() Value { return Counter(n.Counters.UDPOut) })
}

// tcpConnState maps rstream states onto RFC 1213 tcpConnState codes.
func tcpConnState(s rstream.State) int64 {
	switch s {
	case rstream.StateClosed:
		return 1
	case rstream.StateListen:
		return 2
	case rstream.StateSynSent:
		return 3
	case rstream.StateSynReceived:
		return 4
	case rstream.StateEstablished:
		return 5
	default:
		return 1
	}
}

func (v *NodeView) registerTCP() {
	RegisterTable(v.Tree, TCPConn, tcpConnColumns, v.tcpConns,
		func(dst OID, r tcpConnRow) OID { return append(dst, r.index[:]...) })
}

// tcpConnRow is a tcpConnTable row, indexed by (local address, local port,
// remote address, remote port).
type tcpConnRow struct {
	index [10]uint32
	vars  rstream.StateVars
}

// tcpConnColumns: state, local address and port, remote address and port.
var tcpConnColumns = []Column[tcpConnRow]{
	{1, func(r tcpConnRow) Value { return Int(tcpConnState(r.vars.State)) }},
	{2, func(r tcpConnRow) Value { return IP(PseudoIP(r.vars.LocalAddr)) }},
	{3, func(r tcpConnRow) Value { return Int(int64(r.vars.LocalPort)) }},
	{4, func(r tcpConnRow) Value { return IP(PseudoIP(r.vars.RemoteAddr)) }},
	{5, func(r tcpConnRow) Value { return Int(int64(r.vars.RemotePort)) }},
}

// tcpConns gathers the connections the registered listeners have now.
func (v *NodeView) tcpConns() []tcpConnRow {
	var rows []tcpConnRow
	for _, l := range v.listeners {
		for _, c := range l.Conns() {
			vars := c.Vars()
			lip, rip := PseudoIP(vars.LocalAddr), PseudoIP(vars.RemoteAddr)
			rows = append(rows, tcpConnRow{vars: vars, index: [10]uint32{
				uint32(lip[0]), uint32(lip[1]), uint32(lip[2]), uint32(lip[3]),
				uint32(vars.LocalPort),
				uint32(rip[0]), uint32(rip[1]), uint32(rip[2]), uint32(rip[3]),
				uint32(vars.RemotePort),
			}})
		}
	}
	sort.Slice(rows, func(a, b int) bool { return OID(rows[a].index[:]).Cmp(rows[b].index[:]) < 0 })
	return rows
}
