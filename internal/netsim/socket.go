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

// UDPSock is an unreliable datagram endpoint on a node. It carries its
// receive queue, so opening one costs a single object, and its owner may
// Close it and Reopen it on a fresh port, which costs none.
type UDPSock struct {
	node   *Node
	port   Port
	rq     sim.Queue[*Packet]
	closed bool

	consume func(*Packet) // set by Consume

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
		port = n.ephemeralPort()
	}
	if _, taken := n.sockets[port]; taken {
		panic(fmt.Sprintf("netsim: %s port %d already bound", n.Name, port))
	}
	s := &UDPSock{node: n, port: port}
	s.rq.Init(n.net.K, DefaultSockQueue)
	n.sockets[port] = s
	return s
}

// The ephemeral range OpenUDP(0) and Reopen draw from.
const (
	firstEphemeral Port = 49153
	lastEphemeral  Port = 65535
)

// ephemeralPort picks the next free port in the ephemeral range, going
// back to its first port after its last. It panics when every port in the
// range is bound.
func (n *Node) ephemeralPort() Port {
	for range int(lastEphemeral-firstEphemeral) + 1 {
		if n.nextPort < firstEphemeral || n.nextPort == lastEphemeral {
			n.nextPort = firstEphemeral
		} else {
			n.nextPort++
		}
		if _, taken := n.sockets[n.nextPort]; !taken {
			return n.nextPort
		}
	}
	panic(fmt.Sprintf("netsim: %s has every ephemeral port bound", n.Name))
}

// Reopen binds a closed socket to the next ephemeral port, the one
// OpenUDP(0) would pick, keeping its consumer and its receive queue (which
// Close emptied) and restarting Drops. A datagram to the old port is dropped
// as no-port, as it would be after a Close and an OpenUDP(0). Only the
// socket's owner reopens it — a handle someone else kept would reach the new
// port — and reopening an open socket panics.
func (s *UDPSock) Reopen() {
	if !s.closed {
		panic(fmt.Sprintf("netsim: %s port %d reopened while open", s.node.Name, s.port))
	}
	n := s.node
	s.port, s.closed, s.Drops = n.ephemeralPort(), false, 0
	n.sockets[s.port] = s
}

// Port returns the bound port.
func (s *UDPSock) Port() Port { return s.port }

// Close unbinds the socket; queued packets are discarded, their frames
// given back to the network as Free gives them.
func (s *UDPSock) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.node.sockets, s.port)
	for _, pkt := range s.rq.Drain() {
		s.Free(pkt)
	}
}

// SendTo queues a datagram with real payload bytes toward dst:dport.
func (s *UDPSock) SendTo(dst Addr, dport Port, payload []byte) {
	s.send(dst, dport, payload, len(payload), UDP, false)
}

// SendSize queues a synthetic datagram of the given payload size with no
// real bytes — the workhorse of traffic generators and NTTCP loads.
func (s *UDPSock) SendSize(dst Addr, dport Port, size int) {
	s.send(dst, dport, nil, size, UDP, false)
}

// SendProto queues a synthetic datagram with an explicit protocol tag. The
// frame carries payload itself, so the caller must not change its bytes
// while the datagram may still be read.
func (s *UDPSock) SendProto(dst Addr, dport Port, payload []byte, size int, proto Proto) {
	s.send(dst, dport, payload, size, proto, false)
}

// SendCopy queues a UDP datagram of the given payload size that carries a
// copy of payload in a buffer of the network's, so the caller may reuse
// payload as soon as SendCopy returns. A datagram a consumer takes costs no
// allocation: the buffer goes back to the network with the frame (ledger.go).
func (s *UDPSock) SendCopy(dst Addr, dport Port, payload []byte, size int) {
	s.send(dst, dport, payload, size, UDP, true)
}

// send queues a datagram; with copied, a non-empty payload rides in a copy
// the frame owns.
func (s *UDPSock) send(dst Addr, dport Port, payload []byte, size int, proto Proto, copied bool) {
	if s.closed || !s.node.up {
		return
	}
	nw := s.node.net
	if dst != s.lastDst {
		s.lastDst, s.lastID = dst, nw.intern(dst)
	}
	// A frame from newPacket is zero: set the fields one by one rather than
	// copying a 128-byte literal over it.
	pkt := nw.newPacket()
	pkt.ID = nw.pktID()
	pkt.Src, pkt.Dst = s.node.Name, dst
	pkt.SrcPort, pkt.DstPort = s.port, dport
	pkt.Proto = proto
	if copied && len(payload) > 0 {
		buf := nw.newBuf(len(payload))
		copy(buf, payload)
		payload, pkt.owns = buf, true
	}
	pkt.Payload = payload
	pkt.Size = size
	pkt.TTL = 32
	pkt.dst = s.lastID
	pkt.SentAt = nw.K.Now()
	nw.PacketsSent++
	s.node.Counters.UDPOut++
	s.node.output(pkt)
}

// Recv blocks the calling proc until a datagram arrives or timeout elapses
// (negative blocks forever): a client that waits for a reply. The boolean is
// false on timeout; Close does not wake a blocked Recv. The packet and its
// Payload are the caller's until it gives them back with Free; one it never
// frees goes to the collector. Recv on a served socket panics.
func (s *UDPSock) Recv(p *sim.Proc, timeout time.Duration) (*Packet, bool) {
	return s.rq.Get(p, timeout)
}

// Serve makes fn the socket's server: kernel events hand it each datagram
// off the receive queue, in order, with no proc behind it (sim.Queue.Serve
// with no service time), and the frame is given back as Free gives it when
// fn returns. It schedules the same events as a proc spawned now that loops
// on Recv(p, -1), fn and Free, and the queue keeps its depth, so a burst
// drops as sock-full exactly as it would for that proc. fn must keep
// neither the packet nor its Payload. Serve allocates only as it is called
// (the server and its handler); a datagram costs nothing more.
func (s *UDPSock) Serve(fn func(*Packet)) {
	s.rq.Serve(nil, noService, func(pkt *Packet) {
		fn(pkt)
		s.Free(pkt)
	})
}

func noService(*Packet) time.Duration { return 0 }

// Free gives a packet Recv handed out back to the network's free list, with
// the payload buffer it owns (SendCopy), so that the next datagram costs no
// allocation; Serve frees each frame itself. The caller must keep neither
// the packet nor its Payload: the frame is zeroed and a buffer of the
// network's poisoned. Freeing a packet twice panics.
func (s *UDPSock) Free(pkt *Packet) {
	nw := s.node.net
	owns := pkt.owns
	nw.release(pkt)
	nw.ledger.freed++
	if owns {
		nw.ledger.bufReturned++
	}
}

// Consume makes fn take each arriving datagram in the event that delivers
// it, in place of the receive queue: for an endpoint that needs neither a
// queue nor a stack. fn must keep neither the packet nor its Payload: the
// frame is released when fn returns, and a payload buffer of the network's
// is poisoned then. A socket with a consumer never fills, so it drops
// nothing as sock-full.
func (s *UDPSock) Consume(fn func(*Packet)) { s.consume = fn }

// deliver hands an arriving datagram to the socket: to its consumer, after
// which the frame is released, or to its receive queue, from which Recv or
// the socket's server takes it with the payload buffer it owns.
func (s *UDPSock) deliver(pkt *Packet) {
	nw := s.node.net
	if s.closed {
		s.node.Counters.NoPort++
		nw.drop(DropNoPort, pkt)
		return
	}
	if s.consume == nil && !s.rq.Put(pkt) {
		s.Drops++
		nw.drop(DropSockFull, pkt)
		return
	}
	nw.PacketsDelivered++
	s.node.Counters.UDPIn++
	if s.consume == nil {
		nw.ledger.toRecv++
		if pkt.owns {
			nw.ledger.bufToRecv++
		}
		return
	}
	s.consume(pkt)
	nw.release(pkt)
}
