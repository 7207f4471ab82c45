package netsim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// A frame the network owns to the end goes back to the network's free list
// once its last synchronous observer has returned: a datagram a consumer
// (UDPSock.Consume, a Sink) has taken, a frame Network.drop has discarded
// (after OnDrop), and a broadcast original whose copies have all been handed
// out. UDPSock.send and the broadcast and duplicate copies take their frames
// from that list. So a tap's Frame.Pkt and OnDrop's *Packet are valid only
// for the duration of the call. A frame on a receive queue is its socket's
// until UDPSock.Free gives it back: a proc's that takes it with Recv, until
// the proc frees it (one it keeps goes to the collector); a server's
// (UDPSock.Serve), until its handler returns; or the socket's own, until it
// closes with the frame still queued.
//
// UDPSock.SendCopy copies its payload into a buffer off a second list of the
// network's, and the frame owns that buffer (Packet.owns). Releasing the
// frame returns the buffer to the list, poisoned, and so does Free. Two
// events give the buffer up to the collector instead: cloning the frame (the
// copies share the bytes) and a full list.
//
// The packet ledger proves that no frame or buffer is lost or freed twice.
// Each network keeps the terms of three identities, every one counted where
// it happens and none derived from another:
//
//	sent + cloned + crossed in = delivered + Σ dropped[reason] + fanned out
//	                             + crossed out + in flight
//	allocated + crossed in − crossed out − discarded − len(free)
//	                           = in flight + handed to Recv − freed from Recv
//	buffers allocated + crossed in = len(buffer list) + owned in flight
//	                    + given up + discarded + crossed out
//	                    + handed to Recv with its frame − returned through Free
//
// In flight is the frames in interface queues plus the frames with a pending
// hop event (counted where Packet.hop is armed and taken); crossed in and out
// are the frames a ConnectShards link hands between networks, each with the
// buffer it owns. The first identity is conservation; the second catches a
// frame that was never released (or released into a list while a proc still
// holds it); the third does the same for a payload buffer. A released frame
// is zeroed and poisoned, and releasing it again panics; a returned buffer is
// filled with bufPoison, and returning it again panics.

// freeCap bounds a network's free list, in frames. It is a little above the
// frames one busy LAN keeps in flight; a network that only receives over a
// link fills it and lets the rest go to the collector.
const freeCap = 256

// bufPoison fills every byte of a payload buffer on the network's list, so a
// consumer that kept a released frame's Payload reads it instead of the
// datagram.
const bufPoison = 0xdb

// freed poisons a released frame: it is the hop of every frame on a free
// list, which no live frame's hop ever is.
var freed = new(Iface)

// ledger is a network's packet ledger, free list and buffer list.
type ledger struct {
	free []*Packet
	bufs [][]byte // payload buffers, at most freeCap, each poisoned

	cloned     uint64 // broadcast and duplicate copies
	dropped    [numDropReasons]uint64
	fanned     uint64 // broadcast originals released once copied
	crossedIn  uint64
	crossedOut uint64
	hops       int // frames with a pending hop event
	allocated  uint64
	discarded  uint64 // released with the free list full
	toRecv     uint64 // frames handed to a receive queue
	freed      uint64 // frames given back off a receive queue (UDPSock.Free, Close)

	// The buffer identity's terms.
	bufAllocated  uint64
	bufCrossedIn  uint64
	bufCrossedOut uint64
	bufGivenUp    uint64 // shared by a clone
	bufToRecv     uint64 // handed to a receive queue with their frame
	bufReturned   uint64 // returned with a frame given back off a receive queue
	bufDiscarded  uint64 // returned with the list full, or too small to reuse
	bufHops       int    // buffer-owning frames with a pending hop event
}

// newPacket returns a zero frame: one off the free list, or a new one.
func (nw *Network) newPacket() *Packet {
	l := &nw.ledger
	if n := len(l.free); n > 0 {
		p := l.free[n-1]
		l.free = l.free[:n-1]
		p.hop = nil
		return p
	}
	l.allocated++
	return new(Packet)
}

// release returns a frame the network owns to the end to its free list.
func (nw *Network) release(p *Packet) {
	if p.released() {
		panic(fmt.Sprintf("netsim: frame released twice in %s", nw.label()))
	}
	if p.owns {
		nw.releaseBuf(p.Payload)
	}
	*p = Packet{hop: freed}
	l := &nw.ledger
	if len(l.free) < freeCap {
		l.free = append(l.free, p)
	} else {
		l.discarded++
	}
}

// newBuf returns an n-byte buffer for a payload copy: one off the buffer
// list, or a new one. A listed buffer too small for n goes to the collector.
func (nw *Network) newBuf(n int) []byte {
	l := &nw.ledger
	if k := len(l.bufs); k > 0 {
		b := l.bufs[k-1]
		l.bufs = l.bufs[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
		l.bufDiscarded++
	}
	l.bufAllocated++
	return make([]byte, n)
}

// releaseBuf poisons a frame's own payload buffer and returns it to the
// list. A buffer whose first byte is already poison is looked for on the
// list, so that a second return panics.
func (nw *Network) releaseBuf(b []byte) {
	l := &nw.ledger
	if b[0] == bufPoison && slices.ContainsFunc(l.bufs, func(f []byte) bool { return &f[:1][0] == &b[0] }) {
		panic(fmt.Sprintf("netsim: payload buffer returned twice in %s", nw.label()))
	}
	b[0] = bufPoison
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
	if len(l.bufs) < freeCap {
		l.bufs = append(l.bufs, b)
	} else {
		l.bufDiscarded++
	}
}

// disown ends p's ownership of its payload buffer: the bytes stay where they
// are, for whoever still holds them, and the collector reclaims the buffer.
func (nw *Network) disown(p *Packet) {
	if p.owns {
		p.owns = false
		nw.ledger.bufGivenUp++
	}
}

// released reports whether p has gone back to a free list since it was last
// handed out.
func (p *Packet) released() bool { return p.hop == freed }

// label names the network in a ledger failure: by its first node, its size
// and its shard.
func (nw *Network) label() string {
	if len(nw.nodes) == 0 {
		return fmt.Sprintf("an empty network (shard %d)", nw.K.ShardIndex())
	}
	return fmt.Sprintf("the network of %q (%d nodes, shard %d)", nw.nodes[0].Name, len(nw.nodes), nw.K.ShardIndex())
}

// balance checks the three ledger identities. The error names the network, the
// identity that is off and every term of it.
func (nw *Network) balance() error {
	l := &nw.ledger
	queued, queuedBufs := 0, 0
	for _, n := range nw.nodes {
		for _, ifc := range n.ifaces {
			queued += ifc.qlen()
			for i := range ifc.qlen() {
				if ifc.queue.At(i).owns {
					queuedBufs++
				}
			}
		}
	}
	inFlight := int64(queued + l.hops)
	var dropped uint64
	var reasons []string
	for r, d := range l.dropped {
		if d != 0 {
			dropped += d
			reasons = append(reasons, fmt.Sprintf("%v %d", DropReason(r), d))
		}
	}
	var errs []error
	in := int64(nw.PacketsSent + l.cloned + l.crossedIn)
	out := int64(nw.PacketsDelivered+dropped+l.fanned+l.crossedOut) + inFlight
	if in != out {
		errs = append(errs, fmt.Errorf("netsim: packet ledger of %s: frame conservation is off by %d: "+
			"sent %d + cloned %d + crossed in %d = %d, but delivered %d + dropped %d (%s) + fanned out %d + "+
			"crossed out %d + in flight %d (queued %d, pending hop %d) = %d",
			nw.label(), in-out, nw.PacketsSent, l.cloned, l.crossedIn, in, nw.PacketsDelivered,
			dropped, strings.Join(reasons, ", "), l.fanned, l.crossedOut, inFlight, queued, l.hops, out))
	}
	owned := int64(l.allocated+l.crossedIn) - int64(l.crossedOut+l.discarded) - int64(len(l.free))
	held := inFlight + int64(l.toRecv) - int64(l.freed)
	if owned != held {
		errs = append(errs, fmt.Errorf("netsim: packet ledger of %s: %d frames are neither free, in flight nor handed to Recv "+
			"(negative: released while held): allocated %d + crossed in %d − crossed out %d − discarded %d − free %d = %d, "+
			"but in flight %d + handed to Recv %d − freed from Recv %d = %d",
			nw.label(), owned-held, l.allocated, l.crossedIn, l.crossedOut, l.discarded, len(l.free), owned,
			inFlight, l.toRecv, l.freed, held))
	}
	bufsIn := int64(l.bufAllocated + l.bufCrossedIn)
	ownedInFlight := int64(queuedBufs + l.bufHops)
	bufsOut := int64(len(l.bufs)) + ownedInFlight + int64(l.bufGivenUp+l.bufDiscarded+l.bufCrossedOut+l.bufToRecv) - int64(l.bufReturned)
	if bufsIn != bufsOut {
		errs = append(errs, fmt.Errorf("netsim: packet ledger of %s: payload buffers are off by %d "+
			"(negative: returned while held): allocated %d + crossed in %d = %d, but listed %d + owned in flight %d "+
			"(queued %d, pending hop %d) + given up %d + discarded %d + crossed out %d + handed to Recv with its frame %d "+
			"− returned through Free %d = %d",
			nw.label(), bufsIn-bufsOut, l.bufAllocated, l.bufCrossedIn, bufsIn, len(l.bufs), ownedInFlight,
			queuedBufs, l.bufHops, l.bufGivenUp, l.bufDiscarded, l.bufCrossedOut, l.bufToRecv, l.bufReturned, bufsOut))
	}
	return errors.Join(errs...)
}

// mustBalance is the kernel's close hook: a run whose ledger does not
// balance fails there.
func (nw *Network) mustBalance() {
	if err := nw.balance(); err != nil {
		panic(err)
	}
}
