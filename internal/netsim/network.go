package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/sim"
)

// Network is the container for a simulated internetwork. All construction
// (nodes, links, routes) should happen before the kernel runs, or from
// within sim procs.
type Network struct {
	K      *sim.Kernel
	nodes  []*Node // creation order
	byName map[Addr]*Node
	media  []Medium
	rng    *rand.Rand
	nextID uint64

	// ids interns destination addresses: a packet carries its destination's
	// id (valid in this network only, never 0) and each node indexes its
	// resolved forwarding entries by it. A node's name is interned as the
	// node is created — a forwarding table is as long as the largest id its
	// node has sent toward, and what a fleet sends toward is the station and
	// the routers built before it — any other name when first sent to. gen
	// is the routing generation those entries are valid for; every change to
	// a route or an adjacency bumps it.
	ids map[Addr]int32
	gen uint32

	// PacketsSent and PacketsDelivered count end-to-end datagrams handed to
	// sockets, for loss accounting in experiments.
	PacketsSent      uint64
	PacketsDelivered uint64

	// OnDrop, when set, observes every packet the network discards, with
	// the reason — the simulator's packet-loss trace facility.
	OnDrop func(DropReason, *Packet)
}

// DropReason classifies why a packet left the network without delivery.
type DropReason int

// Drop reasons.
const (
	// DropQueueFull: tail drop at a full egress queue.
	DropQueueFull DropReason = iota
	// DropCorrupted: the medium's loss model discarded the frame.
	DropCorrupted
	// DropNoRoute: no route to the destination.
	DropNoRoute
	// DropNoPort: no socket bound at the destination port.
	DropNoPort
	// DropTTLExpired: hop limit exhausted (routing loop protection).
	DropTTLExpired
	// DropHostDown: the node that should handle the packet is down.
	DropHostDown
	// DropIfaceDown: the interface that should carry the packet is down.
	DropIfaceDown
	// DropSockFull: the destination socket's receive queue overflowed.
	DropSockFull
	// DropNoStation: no station with the frame's address on the segment.
	DropNoStation
)

func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropCorrupted:
		return "corrupted"
	case DropNoRoute:
		return "no-route"
	case DropNoPort:
		return "no-port"
	case DropTTLExpired:
		return "ttl-expired"
	case DropHostDown:
		return "host-down"
	case DropIfaceDown:
		return "iface-down"
	case DropSockFull:
		return "sock-full"
	case DropNoStation:
		return "no-station"
	default:
		return "drop?"
	}
}

// drop reports a discarded packet to the trace hook.
func (nw *Network) drop(reason DropReason, pkt *Packet) {
	if nw.OnDrop != nil {
		nw.OnDrop(reason, pkt)
	}
}

// New returns an empty network on the given kernel. The seed drives every
// random decision in the network (loss, jitter), making runs reproducible.
func New(k *sim.Kernel, seed int64) *Network {
	return &Network{
		K:      k,
		byName: make(map[Addr]*Node),
		rng:    k.Rand(seed),
		ids:    make(map[Addr]int32),
		gen:    1,
	}
}

// Node returns the named node, or nil.
func (nw *Network) Node(name Addr) *Node { return nw.byName[name] }

// Nodes returns all nodes in creation order, in a slice the caller owns.
func (nw *Network) Nodes() []*Node { return slices.Clone(nw.nodes) }

// intern returns the dense id of a destination address, assigning the next
// one the first time the address is seen.
func (nw *Network) intern(dst Addr) int32 {
	id, ok := nw.ids[dst]
	if !ok {
		id = int32(len(nw.ids) + 1)
		nw.ids[dst] = id
	}
	return id
}

// Media returns every medium (segment or link) in creation order.
func (nw *Network) Media() []Medium { return nw.media }

// NewHost creates an end host: it terminates traffic but does not forward.
func (nw *Network) NewHost(name Addr) *Node { return nw.newNode(name, RoleHost) }

// NewRouter creates a store-and-forward router with the given per-packet
// processing latency.
func (nw *Network) NewRouter(name Addr, procDelay time.Duration) *Node {
	n := nw.newNode(name, RoleRouter)
	n.ProcDelay = procDelay
	return n
}

// NewSwitch creates a switching node. A switch is modelled as a forwarding
// node whose links are the ports; unicast frames are only visible on the
// ports they traverse, which is exactly the visibility limitation §4.3 of
// the paper describes for switched media.
func (nw *Network) NewSwitch(name Addr, procDelay time.Duration) *Node {
	n := nw.newNode(name, RoleSwitch)
	n.ProcDelay = procDelay
	return n
}

func (nw *Network) newNode(name Addr, role Role) *Node {
	if name == "" || name == Broadcast {
		panic("netsim: invalid node name")
	}
	if _, dup := nw.byName[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	n := &Node{
		net:     nw,
		Name:    name,
		Role:    role,
		up:      true,
		sockets: make(map[Port]*UDPSock),
		routes:  make(map[Addr]Addr),
	}
	nw.nodes = append(nw.nodes, n)
	nw.byName[name] = n
	nw.intern(name)
	return n
}

func (nw *Network) pktID() uint64 {
	nw.nextID++
	return nw.nextID
}

// lost draws from the network RNG and reports whether a frame subject to
// probability p should be dropped.
func (nw *Network) lost(p float64) bool {
	if p <= 0 {
		return false
	}
	return nw.rng.Float64() < p
}

// Role distinguishes traffic termination and forwarding behaviour.
type Role uint8

const (
	// RoleHost terminates traffic addressed to it and drops the rest.
	RoleHost Role = iota
	// RoleRouter forwards packets not addressed to it using its routes.
	RoleRouter
	// RoleSwitch forwards like a router; the distinction is documentary
	// (switches are L2 in spirit and get their tables from the topology
	// builder).
	RoleSwitch
)

func (r Role) String() string {
	switch r {
	case RoleHost:
		return "host"
	case RoleRouter:
		return "router"
	case RoleSwitch:
		return "switch"
	default:
		return "role?"
	}
}
