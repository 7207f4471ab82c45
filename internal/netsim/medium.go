package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// MediumConfig carries the physical parameters of a segment or link.
type MediumConfig struct {
	// RateBps is the raw signalling rate in bits per second.
	RateBps int64
	// PropDelay is the one-way propagation delay.
	PropDelay time.Duration
	// FrameOverhead is the per-frame framing cost in bytes (preamble,
	// MAC header, FCS, inter-frame gap).
	FrameOverhead int
	// ArbDelay models medium-access arbitration per frame: CSMA deference
	// on Ethernet, token rotation on FDDI.
	ArbDelay time.Duration
	// LossProb is the probability that a transmitted frame is corrupted
	// and discarded at the receiver.
	LossProb float64
	// DupProb is the probability that a delivered frame arrives twice
	// (reflections, retransmitting bridges); transports must tolerate it.
	DupProb float64
	// CellSize/CellPayload, when non-zero, round the wire size up to whole
	// cells (ATM's 53/48 segmentation tax).
	CellSize, CellPayload int
	// QueueCap is the egress queue depth, in packets, of interfaces
	// attached to this medium.
	QueueCap int
}

// wireBits returns the number of bits a packet occupies on this medium.
func (c MediumConfig) wireBits(p *Packet) int64 {
	size := p.Size + HeaderOverhead
	if c.CellSize > 0 && c.CellPayload > 0 {
		cells := (size + c.CellPayload - 1) / c.CellPayload
		size = cells * c.CellSize
	}
	return int64(size+c.FrameOverhead) * 8
}

// txTime returns the serialization delay of a packet at the medium rate.
func (c MediumConfig) txTime(p *Packet) time.Duration {
	return time.Duration(float64(c.wireBits(p)) / float64(c.RateBps) * float64(time.Second))
}

// Ethernet10 returns a classic 10 Mb/s shared Ethernet.
func Ethernet10() MediumConfig {
	return MediumConfig{
		RateBps:       10_000_000,
		PropDelay:     5 * time.Microsecond,
		FrameOverhead: 38, // preamble 8 + MAC 14 + FCS 4 + IFG 12
		ArbDelay:      10 * time.Microsecond,
		QueueCap:      64,
	}
}

// Ethernet100 returns a 100 Mb/s shared Ethernet.
func Ethernet100() MediumConfig {
	c := Ethernet10()
	c.RateBps = 100_000_000
	c.ArbDelay = time.Microsecond
	return c
}

// FDDI returns a 100 Mb/s FDDI ring; the token rotation shows up as a
// slightly larger arbitration delay than switched media.
func FDDI() MediumConfig {
	return MediumConfig{
		RateBps:       100_000_000,
		PropDelay:     10 * time.Microsecond,
		FrameOverhead: 28,
		ArbDelay:      8 * time.Microsecond,
		QueueCap:      96,
	}
}

// ATMLink returns a 155 Mb/s point-to-point ATM port, with the 53/48 cell
// tax applied to the wire size.
func ATMLink() MediumConfig {
	return MediumConfig{
		RateBps:     155_000_000,
		PropDelay:   5 * time.Microsecond,
		CellSize:    53,
		CellPayload: 48,
		QueueCap:    128,
	}
}

// Medium is a transmission facility interfaces attach to.
type Medium interface {
	// Name identifies the medium in diagnostics and probes.
	Name() string
	// Config returns the physical parameters.
	Config() MediumConfig
	// Ifaces returns attached interfaces in attach order.
	Ifaces() []*Iface
	// notify tells the medium that ifc has frames queued.
	notify(ifc *Iface)
}

// Frame is what a promiscuous tap observes: a packet on the wire at a given
// instant. Err marks frames that will be discarded as corrupted.
type Frame struct {
	Pkt *Packet
	At  time.Duration
	Err bool
	// WireBytes is the frame's size on the wire including framing.
	WireBytes int
}

// TapFunc receives every frame transmitted on a shared segment. Taps model
// promiscuous media-layer monitoring (RMON probes, sniffers).
type TapFunc func(Frame)

// SegmentStats aggregates wire-level activity on a shared segment, roughly
// the raw material of the RMON etherStats group.
type SegmentStats struct {
	Frames     uint64
	Octets     uint64
	Broadcasts uint64
	Errors     uint64 // frames corrupted in transit
	Deferrals  uint64 // transmission attempts that found the medium busy
	NoStation  uint64 // frames addressed to a station not on the segment
}

// SharedSegment is a broadcast medium: one frame at a time occupies the
// wire, every attached station can observe all frames via taps, and
// contention appears as queueing behind the shared transmitter.
type SharedSegment struct {
	net     *Network
	name    string
	cfg     MediumConfig
	ifaces  []*Iface
	busy    bool
	backlog sim.FIFO[*Iface]
	taps    []TapFunc
	stats   SegmentStats

	// txDoneFn and propDoneFn are the segment's two event functions, bound
	// once here so that a frame's events carry only the packet.
	txDoneFn, propDoneFn func(any)
}

// NewSegment creates a shared segment with the given physical parameters.
func (nw *Network) NewSegment(name string, cfg MediumConfig) *SharedSegment {
	s := &SharedSegment{net: nw, name: name, cfg: cfg}
	s.txDoneFn, s.propDoneFn = s.txDone, s.propDone
	nw.media = append(nw.media, s)
	return s
}

// Name implements Medium.
func (s *SharedSegment) Name() string { return s.name }

// Config implements Medium.
func (s *SharedSegment) Config() MediumConfig { return s.cfg }

// Ifaces implements Medium.
func (s *SharedSegment) Ifaces() []*Iface { return s.ifaces }

// Stats returns a snapshot of the segment counters.
func (s *SharedSegment) Stats() SegmentStats { return s.stats }

// Attach connects a node to the segment and returns the new interface.
func (s *SharedSegment) Attach(n *Node) *Iface {
	ifc := n.addIface(s, s.cfg.QueueCap)
	s.ifaces = append(s.ifaces, ifc)
	return ifc
}

// Tap registers a promiscuous observer of every frame on the wire.
func (s *SharedSegment) Tap(fn TapFunc) { s.taps = append(s.taps, fn) }

// SetLossProb changes the segment's corruption probability at runtime —
// fault injection for flaky-cable scenarios.
func (s *SharedSegment) SetLossProb(p float64) { s.cfg.LossProb = p }

func (s *SharedSegment) notify(ifc *Iface) {
	if ifc.inBacklog || ifc.qlen() == 0 {
		return
	}
	if s.busy {
		s.stats.Deferrals++
	}
	ifc.inBacklog = true
	s.backlog.Push(ifc)
	s.serve()
}

func (s *SharedSegment) serve() {
	if s.busy {
		return
	}
	ifc, ok := s.backlog.Pop()
	if !ok {
		return
	}
	ifc.inBacklog = false
	pkt := ifc.pop()
	if pkt == nil {
		s.serve()
		return
	}
	s.busy = true
	pkt.hop = ifc
	s.net.K.AfterArg(s.cfg.txTime(pkt)+s.cfg.ArbDelay, s.txDoneFn, pkt)
}

// txDone fires when the transmitter (pkt.hop) has put the frame on the wire.
func (s *SharedSegment) txDone(arg any) {
	pkt := arg.(*Packet)
	ifc := pkt.takeHop()
	s.busy = false
	s.complete(ifc, pkt)
	// Fair round-robin: a station with more frames rejoins the queue.
	if ifc.qlen() > 0 && !ifc.inBacklog {
		ifc.inBacklog = true
		s.backlog.Push(ifc)
	}
	s.serve()
}

// complete fires when the frame leaves the wire: update stats, run taps,
// then deliver after propagation delay.
func (s *SharedSegment) complete(from *Iface, pkt *Packet) {
	wire := int(s.cfg.wireBits(pkt) / 8)
	lost := s.net.lost(s.cfg.LossProb)
	s.stats.Frames++
	s.stats.Octets += uint64(wire)
	if pkt.NextHop == Broadcast {
		s.stats.Broadcasts++
	}
	if lost {
		s.stats.Errors++
	}
	f := Frame{Pkt: pkt, At: s.net.K.Now(), Err: lost, WireBytes: wire}
	for _, tap := range s.taps {
		tap(f)
	}
	from.countOut(pkt)
	if lost {
		s.net.drop(DropCorrupted, pkt)
		return
	}
	pkt.hop = from
	s.net.K.AfterArg(s.cfg.PropDelay, s.propDoneFn, pkt)
}

// propDone fires when the frame sent by pkt.hop has crossed the segment.
func (s *SharedSegment) propDone(arg any) {
	pkt := arg.(*Packet)
	s.deliver(pkt.takeHop(), pkt)
}

func (s *SharedSegment) deliver(from *Iface, pkt *Packet) {
	if pkt.NextHop == Broadcast {
		for _, ifc := range s.ifaces {
			if ifc != from {
				ifc.receive(pkt.clone())
			}
		}
		return
	}
	ifc := pkt.rcv
	if ifc == nil {
		s.stats.NoStation++
		s.net.drop(DropNoStation, pkt)
		return
	}
	if s.cfg.DupProb > 0 && s.net.rng.Float64() < s.cfg.DupProb {
		ifc.receive(pkt.clone())
	}
	ifc.receive(pkt)
}

// Link is a full-duplex point-to-point medium: each direction is an
// independent transmitter. Switched fabrics (ATM) are built from links, so
// unicast traffic is invisible anywhere else — no Tap is offered.
//
// The two endpoints may live in different networks on different shards of a
// sim.ShardGroup (see ConnectShards): the link is then the simulated form of
// a cut edge in a partitioned topology, and traffic crossing it is handed
// between shards as a timestamped event, with the link's propagation delay
// providing the conservative lookahead bound. Serialization and loss happen
// in the sending shard's context (drawing the sender network's RNG, so
// per-shard randomness stays shard-owned); delivery at now+PropDelay is
// scheduled through ShardGroup.Send when the endpoints are on different
// shards and as an ordinary local event when they are not. Because the same
// single delivery event fires either way, a topology produces identical
// packet timing at any shard count — the property the
// cross-shard-determinism experiments rely on (when LossProb is zero; loss
// draws come from per-network RNGs whose consumption is
// shard-count-independent only for loss-free links).
type Link struct {
	name string
	cfg  MediumConfig
	ends [2]linkEnd

	txDoneFn func(any) // l.txDone, bound once
}

type linkEnd struct {
	net   *Network
	shard int
	ifc   *Iface
	busy  bool
}

// NewLink connects two nodes of this network with a point-to-point link.
func (nw *Network) NewLink(name string, a, b *Node, cfg MediumConfig) *Link {
	return ConnectShards(name, a, b, cfg)
}

// ConnectShards joins a node in one network to a node in another (possibly
// the same) with a point-to-point link that may cross shard boundaries.
// Both networks must run on kernels of the same ShardGroup — or on plain
// ungrouped kernels sharing the same kernel. When the endpoints are on
// different shards, cfg.PropDelay must be at least the group's lookahead;
// anything shorter could deliver inside a window a peer has already
// executed, so it panics at construction rather than mid-run.
//
// Node names should be unique across the joined networks: a route names its
// next hop, the endpoints become each other's neighbors under their names,
// and a packet that crosses is forwarded on by its destination's name (its
// interned id is the sending network's and is dropped at the link).
func ConnectShards(name string, a, b *Node, cfg MediumConfig) *Link {
	aK, bK := a.net.K, b.net.K
	ga, gb := aK.Group(), bK.Group()
	if ga != gb {
		panic(fmt.Sprintf("netsim: ConnectShards %q endpoints belong to different shard groups", name))
	}
	if ga == nil && aK != bK {
		panic(fmt.Sprintf("netsim: ConnectShards %q endpoints on unrelated kernels", name))
	}
	sa, sb := aK.ShardIndex(), bK.ShardIndex()
	if ga != nil && sa != sb && cfg.PropDelay < ga.Lookahead() {
		panic(fmt.Sprintf("netsim: ConnectShards %q PropDelay %v below group lookahead %v",
			name, cfg.PropDelay, ga.Lookahead()))
	}
	l := &Link{name: name, cfg: cfg}
	l.txDoneFn = l.txDone
	l.ends[0] = linkEnd{net: a.net, shard: sa}
	l.ends[1] = linkEnd{net: b.net, shard: sb}
	l.ends[0].ifc = a.addIface(l, cfg.QueueCap)
	l.ends[1].ifc = b.addIface(l, cfg.QueueCap)
	a.net.media = append(a.net.media, l)
	if b.net != a.net {
		b.net.media = append(b.net.media, l)
	}
	return l
}

// Name implements Medium.
func (l *Link) Name() string { return l.name }

// Config implements Medium.
func (l *Link) Config() MediumConfig { return l.cfg }

// Ifaces implements Medium.
func (l *Link) Ifaces() []*Iface { return []*Iface{l.ends[0].ifc, l.ends[1].ifc} }

// CrossShard reports whether the endpoints live on different shards.
func (l *Link) CrossShard() bool { return l.ends[0].shard != l.ends[1].shard }

// dir returns the direction (index into ends) that ifc transmits in.
func (l *Link) dir(ifc *Iface) int {
	if ifc == l.ends[0].ifc {
		return 0
	}
	return 1
}

func (l *Link) notify(ifc *Iface) {
	end := &l.ends[l.dir(ifc)]
	if end.busy {
		return
	}
	pkt := ifc.pop()
	if pkt == nil {
		return
	}
	end.busy = true
	pkt.hop = ifc
	end.net.K.AfterArg(l.cfg.txTime(pkt), l.txDoneFn, pkt)
}

// txDone fires when the transmitter (pkt.hop) has serialized the frame.
func (l *Link) txDone(arg any) {
	pkt := arg.(*Packet)
	ifc := pkt.takeHop()
	d := l.dir(ifc)
	end := &l.ends[d]
	end.busy = false
	ifc.countOut(pkt)
	if end.net.lost(l.cfg.LossProb) {
		end.net.drop(DropCorrupted, pkt)
	} else {
		l.deliver(d, pkt)
	}
	l.notify(ifc)
}

// deliver hands the packet to the far endpoint at now+PropDelay: a local
// event when both ends share a shard, a cross-shard send otherwise. The
// receive event runs in the destination shard's context, so from there on
// the packet is owned by that shard.
func (l *Link) deliver(d int, pkt *Packet) {
	src, dst := &l.ends[d], &l.ends[1-d]
	pkt.hop = dst.ifc
	if dst.net != src.net {
		pkt.dst = 0
	}
	at := src.net.K.Now() + l.cfg.PropDelay
	g := src.net.K.Group()
	if g == nil || src.shard == dst.shard {
		src.net.K.AtArg(at, receiveHop, pkt)
		return
	}
	g.SendArg(src.shard, dst.shard, at, receiveHop, pkt)
}

// receiveHop fires when a frame reaches the far end of a link (pkt.hop).
func receiveHop(arg any) {
	pkt := arg.(*Packet)
	pkt.takeHop().receive(pkt)
}
