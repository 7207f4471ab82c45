package mib

import (
	"repro/internal/netsim"
)

// Extended MIB-II groups: the ip group (RFC 1213) over node forwarding
// counters and the ifXTable (RFC 2863) with 64-bit octet counters — the
// fix for the Counter32 wrap problem that fast interfaces hit (a 100 Mb/s
// FDDI ring wraps ifInOctets in under six minutes).

// IP group and ifXTable OID prefixes.
var (
	IPGroup  = MustOID("1.3.6.1.2.1.4")
	IfXEntry = MustOID("1.3.6.1.2.1.31.1.1.1")
)

// registerIP exposes the ip group scalars from node counters.
func (v *NodeView) registerIP() {
	n := v.node
	v.Tree.RegisterScalar(IPGroup.Append(1, 0), func() Value {
		// ipForwarding: forwarding(1) for routers/switches, else 2.
		if n.Role != netsim.RoleHost {
			return Int(1)
		}
		return Int(2)
	})
	v.Tree.RegisterScalar(IPGroup.Append(3, 0), func() Value { // ipInReceives
		var total uint64
		for _, ifc := range n.Ifaces() {
			total += ifc.Counters.InPkts
		}
		return Counter(total)
	})
	v.Tree.RegisterScalar(IPGroup.Append(6, 0), func() Value { // ipForwDatagrams
		var total uint64
		if n.Role != netsim.RoleHost {
			for _, ifc := range n.Ifaces() {
				total += ifc.Counters.OutPkts
			}
		}
		return Counter(total)
	})
	v.Tree.RegisterScalar(IPGroup.Append(8, 0), func() Value { // ipInDiscards
		var total uint64
		for _, ifc := range n.Ifaces() {
			total += ifc.Counters.InDiscards
		}
		return Counter(total)
	})
	v.Tree.RegisterScalar(IPGroup.Append(11, 0), func() Value { // ipInAddrErrors-ish: no route
		return Counter(n.Counters.NoRoute)
	})
	v.Tree.RegisterScalar(IPGroup.Append(16, 0), func() Value { // ipOutDiscards
		var total uint64
		for _, ifc := range n.Ifaces() {
			total += ifc.Counters.OutDiscards
		}
		return Counter(total)
	})
	// ipRouteNumber-ish convenience: TTL-expired drops.
	v.Tree.RegisterScalar(IPGroup.Append(23, 0), func() Value {
		return Counter(n.Counters.TTLExpired)
	})
}

// registerIfX exposes the high-capacity interface table.
func (v *NodeView) registerIfX() {
	RegisterTable(v.Tree, IfXEntry, ifXColumns, v.node.Ifaces, ifIndex)
}

// ifXColumns: ifName, ifHCInOctets, ifHCOutOctets, ifHighSpeed (in Mb/s).
var ifXColumns = []Column[*netsim.Iface]{
	{1, func(i *netsim.Iface) Value { return Str(i.Medium().Name()) }},
	{6, func(i *netsim.Iface) Value { return Counter64Val(i.Counters.InOctets) }},
	{10, func(i *netsim.Iface) Value { return Counter64Val(i.Counters.OutOctets) }},
	{15, func(i *netsim.Iface) Value { return Gauge(uint64(i.SpeedBps() / 1_000_000)) }},
}
