// Package netsim models a packet network on top of the sim kernel: hosts,
// routers and switches joined by shared segments (Ethernet, FDDI) and
// point-to-point links (ATM-like switched ports), with finite queues, random
// loss, per-interface counters, and promiscuous taps on shared media.
//
// The model is deliberately at the fidelity the paper's experiments need:
// transmission and propagation delay, FIFO contention on shared media,
// tail-drop queueing, unreliable datagram delivery, and the visibility
// differences between broadcast and switched media.
package netsim

import "time"

// Addr identifies a node (host, router, or switch) in the flat naming scheme
// used throughout the simulator, e.g. "rtds-server-1".
type Addr string

// Broadcast is the next-hop address that delivers a frame to every station
// on a shared segment.
const Broadcast Addr = "*"

// Port identifies a transport endpoint within a node.
type Port uint16

// Proto tags the transport protocol of a packet. The simulator itself only
// moves datagrams; reliability is layered above (package rstream).
type Proto uint8

const (
	// UDP is the unreliable datagram service.
	UDP Proto = iota
	// RDP marks segments of the reliable stream protocol so that traces and
	// probes can classify traffic.
	RDP
)

func (p Proto) String() string {
	switch p {
	case UDP:
		return "udp"
	case RDP:
		return "rdp"
	default:
		return "proto?"
	}
}

// HeaderOverhead is the per-datagram transport+network header cost in bytes
// (IP 20 + UDP 8), charged on the wire in addition to the payload.
const HeaderOverhead = 28

// Packet is a datagram in flight. Payload carries real bytes when the
// traffic needs them (SNMP); synthetic loads set only Size.
type Packet struct {
	ID      uint64
	Src     Addr
	Dst     Addr
	NextHop Addr // link-layer destination for the current hop
	SrcPort Port
	DstPort Port
	Proto   Proto
	Payload []byte
	Size    int // payload bytes; wire size adds HeaderOverhead and framing
	TTL     int32
	// dst is Dst's interned id in the network the packet is crossing, the
	// index of every node's forwarding entry for it; 0 means not interned
	// yet (Node.output does it), which is also how a packet enters a second
	// network over a ConnectShards link, because ids are per network.
	dst    int32
	SentAt time.Duration // virtual time the sender queued the packet

	// hop is the interface the packet's pending simulator event concerns:
	// the transmitter while the frame is on a wire, the receiver while it
	// propagates along a link, the ingress port while a router processes
	// it. It lets each hop schedule one function bound once with the packet
	// as the event argument (sim.Kernel.AfterArg) where a closure capturing
	// both would cost an allocation per frame. Set when the event is
	// scheduled and taken (cleared) when it fires, so it is nil whenever
	// code outside the simulator sees the packet.
	hop *Iface
	// rcv is the station NextHop names on the egress medium, from the
	// forwarding entry Node.output used: a shared segment hands the frame to
	// it without searching its stations. Node.output sets it with NextHop
	// for every unicast hop and nothing reads it once the hop is made.
	rcv *Iface

	// The struct is 128 bytes, exactly a malloc size class; one more word
	// would cost every datagram 16 (TestPacketIs128Bytes).
}

// takeHop returns and clears the packet's pending-event interface.
func (p *Packet) takeHop() *Iface {
	ifc := p.hop
	p.hop = nil
	return ifc
}

// clone returns a shallow copy; used for broadcast delivery so that each
// receiver observes independent hop metadata.
func (p *Packet) clone() *Packet {
	q := *p
	return &q
}
