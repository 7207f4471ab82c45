package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// DefaultSockQueue is the receive queue depth of a socket, in packets.
// Arrivals beyond it are dropped, which is how SNMP responses and traps get
// lost under very high load (§5.2.4).
const DefaultSockQueue = 128

// UDPSock is an unreliable datagram endpoint on a node.
type UDPSock struct {
	node   *Node
	port   Port
	rq     *sim.Queue[*Packet]
	closed bool

	// consume, when set, takes each arriving datagram in the event that
	// delivers it, in place of the receive queue and a proc blocked in Recv:
	// for an endpoint that keeps no state a stack is needed for.
	consume func(*Packet)

	// lastDst/lastID cache the interned id of the previous destination, so
	// a socket that keeps one peer skips the network's intern table.
	lastDst Addr
	lastID  int32

	// Drops counts arrivals discarded because the receive queue was full.
	Drops uint64
}

// OpenUDP binds a datagram socket on the given port; port 0 picks an
// ephemeral port. It panics if the port is taken (a programming error in a
// simulation scenario).
func (n *Node) OpenUDP(port Port) *UDPSock {
	if port == 0 {
		if n.nextPort < 49152 {
			n.nextPort = 49152
		}
		for {
			n.nextPort++
			if _, taken := n.sockets[n.nextPort]; !taken {
				port = n.nextPort
				break
			}
		}
	}
	if _, taken := n.sockets[port]; taken {
		panic(fmt.Sprintf("netsim: %s port %d already bound", n.Name, port))
	}
	s := &UDPSock{node: n, port: port, rq: sim.NewQueue[*Packet](n.net.K, DefaultSockQueue)}
	n.sockets[port] = s
	return s
}

// Port returns the bound port.
func (s *UDPSock) Port() Port { return s.port }

// Close unbinds the socket; queued packets are discarded.
func (s *UDPSock) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.node.sockets, s.port)
	s.rq.Drain()
}

// SendTo queues a datagram with real payload bytes toward dst:dport.
func (s *UDPSock) SendTo(dst Addr, dport Port, payload []byte) {
	s.send(dst, dport, payload, len(payload), UDP)
}

// SendSize queues a synthetic datagram of the given payload size with no
// real bytes — the workhorse of traffic generators and NTTCP loads.
func (s *UDPSock) SendSize(dst Addr, dport Port, size int) {
	s.send(dst, dport, nil, size, UDP)
}

// SendProto queues a synthetic datagram with an explicit protocol tag.
func (s *UDPSock) SendProto(dst Addr, dport Port, payload []byte, size int, proto Proto) {
	s.send(dst, dport, payload, size, proto)
}

func (s *UDPSock) send(dst Addr, dport Port, payload []byte, size int, proto Proto) {
	if s.closed || !s.node.up {
		return
	}
	if dst != s.lastDst {
		s.lastDst, s.lastID = dst, s.node.net.intern(dst)
	}
	pkt := &Packet{
		ID:      s.node.net.pktID(),
		Src:     s.node.Name,
		Dst:     dst,
		SrcPort: s.port,
		DstPort: dport,
		Proto:   proto,
		Payload: payload,
		Size:    size,
		TTL:     32,
		dst:     s.lastID,
		SentAt:  s.node.net.K.Now(),
	}
	s.node.net.PacketsSent++
	s.node.Counters.UDPOut++
	s.node.output(pkt)
}

// Recv blocks the calling proc until a datagram arrives or timeout elapses
// (negative blocks forever). The boolean is false on timeout or close.
func (s *UDPSock) Recv(p *sim.Proc, timeout time.Duration) (*Packet, bool) {
	return s.rq.Get(p, timeout)
}

func (s *UDPSock) deliver(pkt *Packet) {
	if s.closed {
		s.node.Counters.NoPort++
		s.node.net.drop(DropNoPort, pkt)
		return
	}
	if s.consume == nil && !s.rq.Put(pkt) {
		s.Drops++
		s.node.net.drop(DropSockFull, pkt)
		return
	}
	s.node.net.PacketsDelivered++
	s.node.Counters.UDPIn++
	if s.consume != nil {
		s.consume(pkt)
	}
}
