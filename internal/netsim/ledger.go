package netsim

import (
	"errors"
	"fmt"
	"strings"
)

// A frame the network owns to the end goes back to the network's free list
// once its last synchronous observer has returned: a datagram a Sink has
// consumed, a frame Network.drop has discarded (after OnDrop), and a
// broadcast original whose copies have all been handed out. UDPSock.send and
// the broadcast and duplicate copies take their frames from that list. A
// frame Recv hands to a proc is the proc's from then on and never comes
// back. So a tap's Frame.Pkt and OnDrop's *Packet are valid only for the
// duration of the call.
//
// The packet ledger proves that no frame is lost or freed twice. Each
// network keeps the terms of two identities, every one counted where it
// happens and none derived from another:
//
//	sent + cloned + crossed in = delivered + Σ dropped[reason] + fanned out
//	                             + crossed out + in flight
//	allocated + crossed in − crossed out − discarded − len(free)
//	                           = in flight + handed to Recv
//
// In flight is the frames in interface queues plus the frames with a pending
// hop event (counted where Packet.hop is armed and taken); crossed in and out
// are the frames a ConnectShards link hands between networks. The first
// identity is conservation; the second catches a frame that was never
// released (or released into a list while a proc still holds it). A released
// frame is zeroed and poisoned, and releasing it again panics.

// freeCap bounds a network's free list, in frames. It is a little above the
// frames one busy LAN keeps in flight; a network that only receives over a
// link fills it and lets the rest go to the collector.
const freeCap = 256

// freed poisons a released frame: it is the hop of every frame on a free
// list, which no live frame's hop ever is.
var freed = new(Iface)

// ledger is a network's packet ledger and free list.
type ledger struct {
	free []*Packet

	cloned     uint64 // broadcast and duplicate copies
	dropped    [numDropReasons]uint64
	fanned     uint64 // broadcast originals released once copied
	crossedIn  uint64
	crossedOut uint64
	hops       int // frames with a pending hop event
	allocated  uint64
	discarded  uint64 // released with the free list full
	toRecv     uint64 // frames handed to a receive queue
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
	*p = Packet{hop: freed}
	l := &nw.ledger
	if len(l.free) < freeCap {
		l.free = append(l.free, p)
	} else {
		l.discarded++
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

// balance checks both ledger identities. The error names the network, the
// identity that is off and every term of it.
func (nw *Network) balance() error {
	l := &nw.ledger
	queued := 0
	for _, n := range nw.nodes {
		for _, ifc := range n.ifaces {
			queued += ifc.qlen()
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
	held := inFlight + int64(l.toRecv)
	if owned != held {
		errs = append(errs, fmt.Errorf("netsim: packet ledger of %s: %d frames are neither free, in flight nor handed to Recv "+
			"(negative: released while held): allocated %d + crossed in %d − crossed out %d − discarded %d − free %d = %d, "+
			"but in flight %d + handed to Recv %d = %d",
			nw.label(), owned-held, l.allocated, l.crossedIn, l.crossedOut, l.discarded, len(l.free), owned,
			inFlight, l.toRecv, held))
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
