package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// NodeCounters aggregates node-level drop accounting.
type NodeCounters struct {
	NoRoute    uint64 // packets dropped for lack of a route
	NoPort     uint64 // packets addressed to a port with no socket
	TTLExpired uint64
	DownDrops  uint64 // packets dropped because the node was down
	UDPIn      uint64 // datagrams delivered to sockets
	UDPOut     uint64 // datagrams sent from sockets
}

// Clock abstracts a host-local clock; package vclock provides drifting
// implementations. A nil Clock means the host reads true simulation time.
type Clock interface {
	// Now maps true simulation time to this host's local time.
	Now(simNow time.Duration) time.Duration
}

// Node is a host, router, or switch.
type Node struct {
	net  *Network
	Name Addr
	Role Role

	// ProcDelay is the per-packet forwarding latency of routers/switches.
	ProcDelay time.Duration

	// LocalClock, when set, skews this host's timestamps; monitoring code
	// that needs host time must read it through LocalTime.
	LocalClock Clock

	ifaces    []*Iface
	neighbors map[Addr]*Iface
	routes    map[Addr]Addr // destination -> next hop
	defRoute  Addr
	fwd       []fwdEntry // resolved routes, indexed by Packet.dst
	sockets   map[Port]*UDPSock
	nextPort  Port
	up        bool

	Counters NodeCounters
}

// Network returns the owning network.
func (n *Node) Network() *Network { return n.net }

// Up reports whether the node is operational.
func (n *Node) Up() bool { return n.up }

// SetUp brings the node up or down. A down node drops everything it would
// send, receive, or forward — the simulator's host-failure injection.
func (n *Node) SetUp(up bool) { n.up = up }

// LocalTime returns this host's view of the current time.
func (n *Node) LocalTime() time.Duration {
	now := n.net.K.Now()
	if n.LocalClock == nil {
		return now
	}
	return n.LocalClock.Now(now)
}

// Spawn starts a simulated process on this node's kernel, named after the
// node for diagnostics.
func (n *Node) Spawn(name string, fn func(*sim.Proc)) *sim.Proc {
	return n.net.K.Spawn(fmt.Sprintf("%s/%s", n.Name, name), fn)
}

// Ifaces returns the node's interfaces in attach order.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

func (n *Node) addIface(m Medium, queueCap int) *Iface {
	if queueCap <= 0 {
		queueCap = 64
	}
	ifc := &Iface{node: n, medium: m, Index: len(n.ifaces) + 1, queueCap: queueCap, up: true}
	n.ifaces = append(n.ifaces, ifc)
	if n.neighbors == nil {
		n.neighbors = make(map[Addr]*Iface)
	}
	// Existing stations on the medium become neighbors, and we become
	// theirs; each side's network — two, across a ConnectShards link — has a
	// new adjacency for its forwarding entries to catch up with.
	for _, other := range m.Ifaces() {
		if other != nil && other.node != n {
			n.neighbors[other.node.Name] = ifc
			other.node.neighbors[n.Name] = other
			n.net.gen++
			other.node.net.gen++
		}
	}
	return ifc
}

// AddRoute installs a static route: traffic for dst leaves via the directly
// connected nexthop. Routes may be asymmetric between a pair of nodes; the
// paper's §4.3 reachability discussion depends on that.
func (n *Node) AddRoute(dst, nexthop Addr) {
	n.routes[dst] = nexthop
	n.net.gen++
}

// SetDefaultRoute installs the next hop for destinations with no explicit
// route.
func (n *Node) SetDefaultRoute(nexthop Addr) {
	n.defRoute = nexthop
	n.net.gen++
}

// fwdEntry is one destination's resolved route at one node: what route
// answered in generation gen, plus the station on the egress medium that
// the next hop names. A nil out is "no route".
type fwdEntry struct {
	gen      uint32
	out, rcv *Iface
	nh       Addr
}

// resolve fills n's forwarding entry for an interned destination: what
// route answers now, stamped with the generation it answered in. Interface
// and node state is no part of an entry — up/down is checked when a frame is
// queued and when it is received.
func (n *Node) resolve(id int32, dst Addr) *fwdEntry {
	if grow := int(id) + 1 - len(n.fwd); grow > 0 {
		n.fwd = append(n.fwd, make([]fwdEntry, grow)...)
	}
	e := &n.fwd[id]
	*e = fwdEntry{gen: n.net.gen}
	if e.out, e.nh = n.route(dst); e.out != nil {
		for _, ifc := range e.out.medium.Ifaces() {
			if ifc.node.Name == e.nh {
				e.rcv = ifc
				break
			}
		}
	}
	return e
}

// route resolves the egress interface and next hop for a destination, on a
// forwarding-table miss. Explicit host routes take precedence over direct
// adjacency so that asymmetric and broken paths can be configured even
// between neighbors (§4.3's scenarios need this); then direct neighbors;
// then the default. A route whose next hop is not a neighbor is no route.
func (n *Node) route(dst Addr) (*Iface, Addr) {
	if nh, ok := n.routes[dst]; ok {
		if ifc, ok := n.neighbors[nh]; ok {
			return ifc, nh
		}
		return nil, ""
	}
	if ifc, ok := n.neighbors[dst]; ok {
		return ifc, dst
	}
	if n.defRoute != "" {
		if ifc, ok := n.neighbors[n.defRoute]; ok {
			return ifc, n.defRoute
		}
	}
	return nil, ""
}

// output queues a packet toward its destination.
func (n *Node) output(pkt *Packet) {
	if !n.up {
		n.Counters.DownDrops++
		n.net.drop(DropHostDown, pkt)
		return
	}
	if pkt.Dst == Broadcast || pkt.NextHop == Broadcast {
		// Broadcast floods the first interface's medium only; callers that
		// want per-segment broadcast send on a specific interface.
		if len(n.ifaces) == 0 {
			n.Counters.NoRoute++
			n.net.drop(DropNoRoute, pkt)
			return
		}
		pkt.NextHop = Broadcast
		n.ifaces[0].enqueue(pkt)
		return
	}
	if pkt.dst == 0 {
		pkt.dst = n.net.intern(pkt.Dst)
	}
	var e *fwdEntry
	if id := int(pkt.dst); id < len(n.fwd) && n.fwd[id].gen == n.net.gen {
		e = &n.fwd[id]
	} else {
		e = n.resolve(pkt.dst, pkt.Dst)
	}
	if e.out == nil {
		n.Counters.NoRoute++
		n.net.drop(DropNoRoute, pkt)
		return
	}
	pkt.NextHop, pkt.rcv = e.nh, e.rcv
	e.out.enqueue(pkt)
}

// input handles a packet delivered to one of the node's interfaces.
func (n *Node) input(pkt *Packet, ifc *Iface) {
	if !n.up {
		n.Counters.DownDrops++
		n.net.drop(DropHostDown, pkt)
		return
	}
	if pkt.Dst == n.Name || pkt.NextHop == Broadcast && pkt.Dst == Broadcast {
		sock, ok := n.sockets[pkt.DstPort]
		if !ok {
			n.Counters.NoPort++
			n.net.drop(DropNoPort, pkt)
			return
		}
		sock.deliver(pkt)
		return
	}
	if n.Role == RoleHost {
		// Hosts are not routers; traffic for others is dropped.
		n.Counters.NoRoute++
		n.net.drop(DropNoRoute, pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		n.Counters.TTLExpired++
		n.net.drop(DropTTLExpired, pkt)
		return
	}
	if n.ProcDelay > 0 {
		pkt.armHop(ifc)
		n.net.K.AfterArg(n.ProcDelay, forwardHop, pkt)
	} else {
		n.output(pkt)
	}
}

// forwardHop fires when a router has spent ProcDelay on a packet: the node
// that took it in (pkt.hop's) routes it onward.
func forwardHop(arg any) {
	pkt := arg.(*Packet)
	pkt.takeHop().node.output(pkt)
}

// Iface is a node's attachment to a medium, with a bounded egress queue.
type Iface struct {
	node      *Node
	medium    Medium
	Index     int
	queue     sim.FIFO[*Packet]
	queueCap  int
	inBacklog bool
	up        bool

	Counters IfaceCounters
}

// IfaceCounters is the raw material of the MIB-II interfaces group.
type IfaceCounters struct {
	InOctets    uint64
	OutOctets   uint64
	InPkts      uint64
	OutPkts     uint64
	InDiscards  uint64
	OutDiscards uint64
	InErrors    uint64
	OutErrors   uint64
}

// Node returns the owning node.
func (i *Iface) Node() *Node { return i.node }

// Medium returns the attached medium.
func (i *Iface) Medium() Medium { return i.medium }

// Up reports the interface operational status (MIB ifOperStatus).
func (i *Iface) Up() bool { return i.up && i.node.up }

// SetUp brings the interface up or down.
func (i *Iface) SetUp(up bool) { i.up = up }

// SpeedBps returns the medium rate (MIB ifSpeed).
func (i *Iface) SpeedBps() int64 { return i.medium.Config().RateBps }

func (i *Iface) qlen() int { return i.queue.Len() }

func (i *Iface) enqueue(pkt *Packet) {
	if !i.Up() {
		i.Counters.OutDiscards++
		i.node.net.drop(DropIfaceDown, pkt)
		return
	}
	if i.queue.Len() >= i.queueCap {
		i.Counters.OutDiscards++
		i.node.net.drop(DropQueueFull, pkt)
		return
	}
	i.queue.Push(pkt)
	i.medium.notify(i)
}

// pop takes the next frame to transmit, or nil when the queue is empty.
func (i *Iface) pop() *Packet {
	pkt, _ := i.queue.Pop()
	return pkt
}

func (i *Iface) countOut(pkt *Packet) {
	i.Counters.OutPkts++
	i.Counters.OutOctets += uint64(pkt.Size + HeaderOverhead)
}

func (i *Iface) receive(pkt *Packet) {
	if !i.node.up {
		i.node.Counters.DownDrops++
		i.node.net.drop(DropHostDown, pkt)
		return
	}
	if !i.up {
		i.Counters.InDiscards++
		i.node.net.drop(DropIfaceDown, pkt)
		return
	}
	i.Counters.InPkts++
	i.Counters.InOctets += uint64(pkt.Size + HeaderOverhead)
	i.node.input(pkt, i)
}
