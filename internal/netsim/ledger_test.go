package netsim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// mustBalanceNow fails the test if either ledger identity is off.
func mustBalanceNow(t *testing.T, nws ...*Network) {
	t.Helper()
	for _, nw := range nws {
		if err := nw.balance(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLossyLinkLedgerCountsCorruption: a frame corrupted on a point-to-point
// link is counted under DropCorrupted, and the ledger balances with it.
func TestLossyLinkLedgerCountsCorruption(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 5)
	a, b := nw.NewHost("a"), nw.NewHost("b")
	cfg := ATMLink()
	cfg.LossProb = 0.3
	nw.NewLink("a-b", a, b, cfg)
	sink := NewSink(b, 9)
	(&CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 500}).Run()
	k.Run()
	lost := nw.PacketsSent - uint64(sink.Received)
	if lost == 0 {
		t.Fatal("a 30 % lossy link lost nothing")
	}
	if got := nw.ledger.dropped[DropCorrupted]; got != lost {
		t.Fatalf("dropped[corrupted] = %d, want the %d frames the link lost", got, lost)
	}
	mustBalanceNow(t, nw)
}

// TestRetainedFramesReadAsReleased: a tap or drop hook that keeps the packet
// past its call holds a frame that has gone back to the free list, and the
// frame reads as released — zero, poisoned — until it is handed out again.
func TestRetainedFramesReadAsReleased(t *testing.T) {
	k, nw, a, b := twoHosts(t)
	var tapped, dropped *Packet
	a.Ifaces()[0].Medium().(*SharedSegment).Tap(func(f Frame) { tapped = f.Pkt })
	nw.OnDrop = func(_ DropReason, p *Packet) { dropped = p }
	NewSink(b, 9)
	tx := a.OpenUDP(0)
	k.After(0, func() {
		tx.SendSize("b", 9, 100)
		tx.SendSize("b", 99, 100) // no port: dropped at b
	})
	k.Run()
	for name, p := range map[string]*Packet{"tapped": tapped, "dropped": dropped} {
		if p == nil || !p.released() {
			t.Fatalf("%s frame not released: %+v", name, p)
		}
		if p.Size != 0 || p.Src != "" || p.ID != 0 {
			t.Fatalf("%s frame not zeroed: %+v", name, p)
		}
	}
	mustBalanceNow(t, nw)
}

// TestReleaseTwicePanics: the poison catches a second release of a frame.
func TestReleaseTwicePanics(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 1)
	nw.NewHost("a")
	p := nw.newPacket()
	nw.release(p)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "released twice") || !strings.Contains(msg, `the network of "a"`) {
			t.Fatalf("second release: recovered %v, want a panic naming the network", r)
		}
	}()
	nw.release(p)
}

// TestPayloadReturnedTwicePanics: the poison catches a second return of a
// payload buffer, as it does a frame's second release.
func TestPayloadReturnedTwicePanics(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 1)
	nw.NewHost("a")
	b := nw.newBuf(64)
	nw.releaseBuf(b)
	if !filledWith(b, bufPoison) {
		t.Fatalf("a returned buffer reads % x…, want poison", b[:8])
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "payload buffer returned twice") || !strings.Contains(msg, `the network of "a"`) {
			t.Fatalf("second return: recovered %v, want a panic naming the network", r)
		}
	}()
	nw.releaseBuf(b)
}

// TestFreeTwicePanics: the poison catches a second Free of a frame Recv
// handed out, as it does a second release.
func TestFreeTwicePanics(t *testing.T) {
	k, _, a, b := twoHosts(t)
	rx := b.OpenUDP(7)
	var got *Packet
	b.Spawn("rx", func(p *sim.Proc) { got, _ = rx.Recv(p, -1) })
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendCopy("b", 7, []byte("once"), 64) })
	k.Run()
	if got == nil {
		t.Fatal("nothing received")
	}
	rx.Free(got)
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "released twice") || !strings.Contains(msg, `the network of "a"`) {
			t.Fatalf("second Free: recovered %v, want a panic naming the network", r)
		}
	}()
	rx.Free(got)
}

// TestFreedRecvPayloadReadsPoison: a proc that keeps a SendCopy payload
// past Free holds a buffer that went back to the network with the frame, and
// reads poison there; the ledger counts the frame freed and the buffer
// returned.
func TestFreedRecvPayloadReadsPoison(t *testing.T) {
	k, nw, a, b := twoHosts(t)
	rx := b.OpenUDP(7)
	var kept []byte
	b.Spawn("rx", func(p *sim.Proc) {
		pkt, _ := rx.Recv(p, -1)
		if string(pkt.Payload) != "a poll response" {
			t.Errorf("proc read %q", pkt.Payload)
		}
		kept = pkt.Payload
		rx.Free(pkt)
	})
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendCopy("b", 7, []byte("a poll response"), 64) })
	k.Run()
	if len(kept) != len("a poll response") || !filledWith(kept, bufPoison) {
		t.Fatalf("kept payload reads %q, want poison", kept)
	}
	if l := nw.ledger; l.toRecv != 1 || l.freed != 1 || l.bufToRecv != 1 || l.bufReturned != 1 || len(l.bufs) != 1 {
		t.Fatalf("handed to Recv %d, freed %d, buffers handed %d, returned %d, listed %d; want 1 each",
			l.toRecv, l.freed, l.bufToRecv, l.bufReturned, len(l.bufs))
	}
	mustBalanceNow(t, nw)
}

// TestCloseGivesBackQueuedFrames: frames queued at a socket nobody reads go
// back to the network, buffers and all, when the socket closes.
func TestCloseGivesBackQueuedFrames(t *testing.T) {
	k, nw, a, b := twoHosts(t)
	rx := b.OpenUDP(7)
	tx := a.OpenUDP(0)
	k.After(0, func() {
		for i := 0; i < 3; i++ {
			tx.SendCopy("b", 7, []byte("never read"), 64)
		}
	})
	k.Run()
	free := len(nw.ledger.free)
	rx.Close()
	if l := nw.ledger; l.freed != 3 || l.bufReturned != 3 || len(l.free) != free+3 || len(l.bufs) != 3 {
		t.Fatalf("closing a socket with 3 queued copies: freed %d, returned %d, free list %d → %d, buffers listed %d",
			l.freed, l.bufReturned, free, len(l.free), len(l.bufs))
	}
	mustBalanceNow(t, nw)
}

// TestConsumerKeptPayloadReadsPoison: a consumer that keeps a SendCopy
// payload past its call holds a buffer that went back to the network with
// the frame, and reads poison there; the sender's own slice was never the
// frame's.
func TestConsumerKeptPayloadReadsPoison(t *testing.T) {
	k, nw, a, b := twoHosts(t)
	var kept []byte
	b.OpenUDP(9).Consume(func(p *Packet) {
		if string(p.Payload) != "a track update" {
			t.Errorf("consumer read %q", p.Payload)
		}
		kept = p.Payload
	})
	src := []byte("a track update")
	tx := a.OpenUDP(0)
	k.After(0, func() {
		tx.SendCopy("b", 9, src, 8192)
		copy(src, "overwritten at once")
	})
	k.Run()
	if len(kept) != len(src) || !filledWith(kept, bufPoison) {
		t.Fatalf("kept payload reads %q, want %d bytes of poison", kept, len(src))
	}
	if l := nw.ledger; l.bufAllocated != 1 || len(l.bufs) != 1 || &l.bufs[0][0] != &kept[0] {
		t.Fatalf("buffer not back on the list: allocated %d, listed %d", l.bufAllocated, len(l.bufs))
	}
	mustBalanceNow(t, nw)
}

// TestBroadcastPayloadIsNeverListedWhileShared: the copies of a broadcast
// share one payload, so none of them, nor the original, gives it back to the
// list — not when a consumer's copy is released while a Recv proc still
// holds another, and not after later SendCopy traffic has cycled the list.
func TestBroadcastPayloadIsNeverListedWhileShared(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	seg := nw.NewSegment("lan", Ethernet10())
	a, b, c := nw.NewHost("a"), nw.NewHost("b"), nw.NewHost("c")
	for _, n := range []*Node{a, b, c} {
		seg.Attach(n)
	}
	consumed := 0
	b.OpenUDP(9).Consume(func(*Packet) { consumed++ })
	rx := c.OpenUDP(9)
	var held *Packet
	c.Spawn("rx", func(p *sim.Proc) { held, _ = rx.Recv(p, -1) })
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendCopy(Broadcast, 9, []byte("to all stations"), 64) })
	k.Run()
	if consumed != 1 || held == nil || string(held.Payload) != "to all stations" {
		t.Fatalf("consumed %d, held %v", consumed, held)
	}
	shared := &held.Payload[0]
	listed := func() bool {
		return slices.ContainsFunc(nw.ledger.bufs, func(b []byte) bool { return &b[0] == shared })
	}
	if listed() || nw.ledger.bufGivenUp != 1 {
		t.Fatalf("broadcast payload listed %v, given up %d times, want not listed and 1", listed(), nw.ledger.bufGivenUp)
	}
	// Unicast copies of the same length cycle through the list meanwhile.
	for i := 0; i < 8; i++ {
		k.After(0, func() { tx.SendCopy("b", 9, []byte("unicast traffic"), 64) })
	}
	k.Run()
	if listed() || string(held.Payload) != "to all stations" {
		t.Fatalf("held broadcast payload listed %v, reads %q", listed(), held.Payload)
	}
	mustBalanceNow(t, nw)
}

// TestLedgerNamesLeak: a frame the network took and never released or
// handed out fails the second identity, and the error names the network and
// the term.
func TestLedgerNamesLeak(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 1)
	nw.NewHost("leaky")
	nw.newPacket()
	err := nw.balance()
	if err == nil {
		t.Fatal("a leaked frame balanced")
	}
	for _, want := range []string{`the network of "leaky"`, "1 frames are neither free, in flight nor handed to Recv"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ledger error %q does not say %q", err, want)
		}
	}
	nw.release(nw.newPacket()) // the next frame comes off the list: still one short
	if nw.balance() == nil {
		t.Fatal("a leaked frame balanced after a recycle")
	}
	nw.ledger.allocated-- // forgive the frame, then leak a payload buffer
	nw.newBuf(8)
	err = nw.balance()
	if err == nil || !strings.Contains(err.Error(), "payload buffers are off by 1") {
		t.Fatalf("a leaked payload buffer: ledger error %v", err)
	}
}

// TestRecvFrameIsNeverRecycled: the packet Recv hands to a proc stays the
// proc's while the network keeps recycling every frame around it.
func TestRecvFrameIsNeverRecycled(t *testing.T) {
	k, nw, a, b := twoHosts(t)
	rx := b.OpenUDP(7)
	NewSink(b, 9)
	var kept *Packet
	b.Spawn("rx", func(p *sim.Proc) { kept, _ = rx.Recv(p, -1) })
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendTo("b", 7, []byte("keep")) })
	k.Run()
	if kept == nil {
		t.Fatal("nothing received")
	}
	want := *kept
	// Sink traffic and drops after the hand-out: every one of these frames
	// is recycled, several times over.
	(&CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 200, Interval: 100 * time.Microsecond, Count: 2000}).Run()
	(&CBRSource{Src: a, Dst: "b", DstPort: 99, Size: 50, Interval: 300 * time.Microsecond, Count: 500}).Run()
	k.Run()
	if kept.released() || !reflect.DeepEqual(*kept, want) || string(kept.Payload) != "keep" {
		t.Fatalf("a Recv-delivered packet changed under the proc: %+v, want %+v", *kept, want)
	}
	if nw.ledger.toRecv != 1 {
		t.Fatalf("handed to Recv = %d, want 1", nw.ledger.toRecv)
	}
	mustBalanceNow(t, nw)
}

// TestReceiveOnlyNetworkCapsFreeList: a network that takes frames over a
// link and sends none releases every one of them into its own free list,
// which stops at freeCap and lets the rest go.
func TestReceiveOnlyNetworkCapsFreeList(t *testing.T) {
	g := sim.NewShardGroup(2, time.Millisecond)
	defer g.Close()
	nwA, nwB := New(g.Shard(0), 1), New(g.Shard(1), 2)
	a, b := nwA.NewHost("a"), nwB.NewHost("b")
	cfg := ATMLink()
	cfg.PropDelay = time.Millisecond
	ConnectShards("cut", a, b, cfg)
	sink := NewSink(b, 9)
	(&CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: 50 * time.Microsecond, Count: 3 * freeCap}).Run()
	g.Run()
	if sink.Received == 0 {
		t.Fatal("nothing crossed the cut")
	}
	if got := len(nwB.ledger.free); got != freeCap {
		t.Fatalf("receiver's free list holds %d frames, want its cap %d", got, freeCap)
	}
	if got, want := nwB.ledger.discarded, uint64(sink.Received-freeCap); got != want {
		t.Fatalf("receiver discarded %d frames, want %d", got, want)
	}
	if nwA.ledger.crossedOut != nwB.ledger.crossedIn {
		t.Fatalf("crossed out %d, crossed in %d", nwA.ledger.crossedOut, nwB.ledger.crossedIn)
	}
	mustBalanceNow(t, nwA, nwB)
}

// ledgerWorld is FuzzPacketLedger's topology: network A (three hosts, a
// router, a lossy duplicating segment and a lossy link) and network B (three
// hosts, a router, a segment and a link), joined by a ConnectShards cut
// between the routers, on one kernel or on the two shards of a group. Each
// router's default route is the other, so a datagram to a name neither
// network has bounces across the cut until its TTL runs out, and rA routes
// "lost" to a host, which drops it as no route. Every host binds a consumer
// (port 9), a socket a proc drains through Recv (7) and one nobody reads,
// whose four-deep queue fills (8); port 99 is bound nowhere. Any of them may
// close, and reopen on a fresh port. The Recv proc frees every frame with an
// even ID and keeps the rest.
type ledgerWorld struct {
	k     *sim.Kernel // drives the whole run
	nets  [2]*Network
	nodes []*Node // a0 a1 a2 rA b0 b1 b2 rB
	socks []*UDPSock
	lanA  *SharedSegment
	sides [2]*ledgerSide
}

// ledgerSide is what one network's endpoints saw of SendCopy payloads. Each
// is touched only from its network's shard.
type ledgerSide struct {
	scratch []byte // what SendCopy copies; every send rewrites it
	mark    byte   // the byte the last payload was filled with
	held    []heldPayload
	bad     []string // payloads an endpoint found corrupt

	// Where payload copies ended, summed by TestLedgerSeedsReachEveryEnding.
	consumed, received, broadcast, duplicated int
	reopened                                  int // copies taken at a reopened socket's fresh port
	freed                                     int // copies a Recv proc gave back
	dropped                                   [numDropReasons]int
	seen                                      map[seenKey]bool
}

// heldPayload is a payload a Recv proc keeps, with the byte it was filled
// with: the network must neither poison nor reuse it.
type heldPayload struct {
	b    []byte
	mark byte
}

type seenKey struct {
	at, src Addr
	id      uint64
}

var (
	ledgerNames = []Addr{"a0", "a1", "a2", "rA", "b0", "b1", "b2", "rB", "ghost", "lost", Broadcast}
	ledgerPorts = []Port{9, 7, 8, 99}
)

func newLedgerWorld(sharded bool, loss, dup float64) *ledgerWorld {
	w := &ledgerWorld{}
	var kA, kB *sim.Kernel
	if sharded {
		g := sim.NewShardGroup(2, time.Millisecond)
		kA, kB = g.Shard(0), g.Shard(1)
	} else {
		kA = sim.NewKernel()
		kB = kA
	}
	w.k = kA
	w.nets = [2]*Network{New(kA, 11), New(kB, 12)}
	for i, nw := range w.nets {
		side := &ledgerSide{scratch: make([]byte, 4*256), seen: make(map[seenKey]bool)}
		w.sides[i] = side
		nw.OnDrop = func(r DropReason, p *Packet) {
			if p.owns {
				side.dropped[r]++
			}
		}
		name := "ab"[i : i+1]
		var hosts [3]*Node
		for h := range hosts {
			hosts[h] = nw.NewHost(Addr(fmt.Sprintf("%s%d", name, h)))
		}
		r := nw.NewRouter(Addr("r"+strings.ToUpper(name)), 10*time.Microsecond)
		lanCfg := Ethernet10()
		lanCfg.DupProb = dup
		linkCfg := ATMLink()
		if i == 0 {
			lanCfg.LossProb, linkCfg.LossProb = loss, loss
		}
		lan := nw.NewSegment(name+"-lan", lanCfg)
		for _, n := range []*Node{hosts[0], hosts[1], r} {
			lan.Attach(n)
		}
		nw.NewLink(name+"-link", r, hosts[2], linkCfg)
		for _, h := range hosts {
			h.SetDefaultRoute(r.Name)
			sink := h.OpenUDP(9)
			sink.Consume(func(p *Packet) {
				if side.see(h.Name, p) && p.owns {
					side.consumed++
					if p.DstPort != 9 {
						side.reopened++
					}
				}
			})
			rx := h.OpenUDP(7)
			h.Spawn("rx", func(p *sim.Proc) {
				for {
					pkt, ok := rx.Recv(p, -1)
					if !ok {
						continue
					}
					copied := side.see(h.Name, pkt)
					if copied {
						side.received++
						if pkt.DstPort != 7 {
							side.reopened++
						}
					}
					switch {
					case pkt.ID%2 == 0: // every other frame goes back
						if pkt.owns {
							side.freed++
						}
						rx.Free(pkt)
					case copied:
						side.held = append(side.held, heldPayload{pkt.Payload, pkt.Payload[0]})
					}
				}
			})
			full := h.OpenUDP(8)
			full.rq.Init(h.net.K, 4)
			w.socks = append(w.socks, rx, full, sink)
		}
		if i == 0 {
			w.lanA = lan
		}
		w.nodes = append(w.nodes, hosts[0], hosts[1], hosts[2], r)
	}
	cut := ATMLink()
	cut.PropDelay = time.Millisecond
	cut.LossProb = loss
	ConnectShards("cut", w.nodes[3], w.nodes[7], cut)
	w.nodes[3].SetDefaultRoute("rB")
	w.nodes[3].AddRoute("lost", "a0")
	w.nodes[7].SetDefaultRoute("rA")
	return w
}

// payload fills n bytes of the scratch of src's network with the next mark
// and returns them.
func (w *ledgerWorld) payload(src *Node, n int) []byte {
	s := w.sides[0]
	if src.net == w.nets[1] {
		s = w.sides[1]
	}
	if s.mark++; s.mark == bufPoison {
		s.mark++
	}
	b := s.scratch[:n]
	for i := range b {
		b[i] = s.mark
	}
	return b
}

// see checks a datagram's payload at a socket of node at: a SendCopy
// payload must be one mark throughout, never poison. It reports whether the
// datagram carried one, and counts broadcast and duplicate copies.
func (s *ledgerSide) see(at Addr, p *Packet) bool {
	if len(p.Payload) == 0 {
		return false
	}
	if m := p.Payload[0]; m == bufPoison || !filledWith(p.Payload, m) {
		s.bad = append(s.bad, fmt.Sprintf("%s got datagram %d from %s with payload % x…", at, p.ID, p.Src, p.Payload[:min(8, len(p.Payload))]))
	}
	if p.NextHop == Broadcast {
		s.broadcast++
	}
	k := seenKey{at, p.Src, p.ID}
	if s.seen[k] {
		s.duplicated++
	}
	s.seen[k] = true
	return true
}

// filledWith reports whether every byte of b is m.
func filledWith(b []byte, m byte) bool {
	for _, c := range b {
		if c != m {
			return false
		}
	}
	return true
}

// at runs fn at virtual time t on the kernel of n's network.
func (w *ledgerWorld) at(n *Node, t time.Duration, fn func()) { n.net.K.At(t, fn) }

// apply schedules one 4-byte op of the fuzz script. A send op with bit 6 of
// op set sends with SendCopy, from a scratch buffer it rewrites every send.
func (w *ledgerWorld) apply(op, x, y byte, t time.Duration, bSends bool) {
	pick := func(b byte) *Node {
		if bSends && b&0x80 != 0 {
			return w.nodes[4+int(b)%3]
		}
		return w.nodes[int(b)%3]
	}
	dst, port := ledgerNames[int(y)%len(ledgerNames)], ledgerPorts[int(y>>4)%len(ledgerPorts)]
	switch op % 6 {
	case 0, 1: // one datagram, or a burst deep enough to fill a queue
		src, n, size, copied := pick(x), 1, int(x)*4, op&0x40 != 0
		if op%6 == 1 {
			n = int(y)%64 + 1
		}
		w.at(src, t, func() {
			tx := src.OpenUDP(0)
			for i := 0; i < n; i++ {
				if copied {
					tx.SendCopy(dst, port, w.payload(src, size), size)
				} else {
					tx.SendSize(dst, port, size)
				}
			}
			tx.Close()
		})
	case 2: // node down or up
		n := w.nodes[int(x)%len(w.nodes)]
		w.at(n, t, func() { n.SetUp(!n.Up()) })
	case 3: // interface down or up
		n := w.nodes[int(x)%len(w.nodes)]
		ifc := n.Ifaces()[int(y)%len(n.Ifaces())]
		w.at(n, t, func() { ifc.SetUp(!ifc.up) })
	case 4: // close a socket; with bit 6 of op set, reopen it on a fresh port
		// and send itself a copy at the old port and one at the new
		s := w.socks[int(x)%len(w.socks)]
		if op&0x40 == 0 {
			w.at(s.node, t, s.Close)
			break
		}
		size := int(y)%64 + 1
		w.at(s.node, t, func() {
			old := s.port
			s.Close()
			s.Reopen()
			s.SendCopy(s.node.Name, old, w.payload(s.node, size), size)
			s.SendCopy(s.node.Name, s.port, w.payload(s.node, size), size)
		})
	case 5: // change the A segment's loss
		w.at(w.nodes[0], t, func() { w.lanA.SetLossProb(float64(y) / 512) })
	}
}

// check asserts the three identities, both lists' cap and every payload an
// endpoint saw or holds; at quiescence also that nothing is in flight and
// every frame that left one network reached the other.
func (w *ledgerWorld) check(t *testing.T, quiet bool) {
	t.Helper()
	mustBalanceNow(t, w.nets[:]...)
	var out, in uint64
	for i, nw := range w.nets {
		l := &nw.ledger
		if len(l.free) > freeCap || len(l.bufs) > freeCap {
			t.Fatalf("%s: free list %d frames and buffer list %d, over their cap %d", nw.label(), len(l.free), len(l.bufs), freeCap)
		}
		out += l.crossedOut
		in += l.crossedIn
		if quiet && (l.hops != 0 || l.bufHops != 0) {
			t.Fatalf("%s: %d frames (%d owning a buffer) pending a hop at quiescence", nw.label(), l.hops, l.bufHops)
		}
		side := w.sides[i]
		if len(side.bad) > 0 {
			t.Fatalf("%s: %d corrupt payloads, first: %s", nw.label(), len(side.bad), side.bad[0])
		}
		for _, h := range side.held {
			if !filledWith(h.b, h.mark) {
				t.Fatalf("%s: a payload a Recv proc holds changed from %#x to % x…", nw.label(), h.mark, h.b[:min(8, len(h.b))])
			}
		}
	}
	if in > out || quiet && in != out {
		t.Fatalf("crossed out %d, crossed in %d", out, in)
	}
}

// ledgerSeeds are FuzzPacketLedger's seed scripts. The last five send with
// SendCopy (op 0x42, or 0x43 for a burst, and 0x46 reopens a socket), and
// between them reach every way a payload buffer's ownership ends
// (TestLedgerSeedsReachEveryEnding).
var ledgerSeeds = [][]byte{
	{0, 40, 30, 0, 0, 0x30, 1, 1, 3, 0x13, 2, 2, 1, 0x28, 3},
	{1, 0, 0, 1, 2, 0x10, 0, 1, 5, 0x08, 4, 0, 0, 0x39, 9},
	{3, 90, 60, 0, 0x81, 0x15, 0, 1, 0x82, 0xff, 2, 2, 7, 0, 20, 4, 3, 0, 30, 1, 0, 0x12, 40, 3, 4, 1, 50},
	{2, 10, 0, 1, 1, 0x24, 0, 0, 2, 0x09, 0, 5, 0, 200, 1, 0, 1, 0x38, 2},
	// One kernel, lossy and duplicating A: copies from a0 to a consumer,
	// two Recv sockets, no port, the far side of the cut, a TTL loop, a lost
	// route and both broadcasts; a1 goes down and comes back with copies
	// sent to it meanwhile; a burst of copies fills a1's unread socket.
	{0, 30, 40,
		0x42, 0x0f, 0x01, 0, 0x42, 0x0f, 0x17, 1, 0x42, 0x0f, 0x18, 2, 0x42, 0x0f, 0x38, 3,
		0x43, 0x0f, 0x04, 4, 0x42, 0x0f, 0x10, 5, 0x42, 0x0f, 0x08, 6, 0x42, 0x0f, 0x09, 7,
		0x42, 0x0f, 0x0a, 8, 0x42, 0x0f, 0x15, 9,
		2, 1, 0, 30, 0x43, 0x0f, 0x01, 31, 2, 1, 0, 45, 0x43, 0x0f, 0x01, 50, 0x43, 0x0f, 0x22, 60},
	// Two shards, B sends: bursts of 1020-byte copies from b0 deep enough
	// to fill its egress queue, copies across the cut both ways, and a0's
	// interface going down under them.
	{3, 30, 40,
		0x43, 0xff, 0x3e, 0, 0x43, 0xff, 0x3e, 0, 0x43, 0xff, 0x3e, 0, 0x43, 0x0f, 0x05, 1,
		0x42, 0x82, 0x17, 2, 0x43, 0x84, 0x01, 3, 3, 0, 0, 10, 0x43, 0x0f, 0x05, 11, 3, 0, 0, 30},
	// One kernel, no loss, heavy duplication: bursts of copies to a
	// consumer, a Recv socket and both broadcasts.
	{0, 0, 63, 0x43, 0x0f, 0x01, 0, 0x43, 0x0f, 0x17, 1, 0x43, 0x0f, 0x0a, 20, 0x43, 0x0f, 0x15, 40},
	// One kernel, no loss and no duplication, so a copy lives to the end
	// of the path: copies to a1 while it is down, then one to a name that
	// bounces across the cut until its TTL runs out.
	{0, 0, 0, 2, 1, 0, 0, 0x43, 0x0f, 0x01, 1, 2, 1, 0, 10, 0x42, 0x0f, 0x08, 11},
	// One kernel, no loss: a burst of copies from a1 fills a0's unread
	// socket, which then closes with four of them queued.
	{0, 0, 0, 0x43, 0x04, 0x2c, 0, 4, 1, 0, 10},
	// One kernel, lossy A: a0's Recv, unread and consumer sockets and a2's
	// consumer, behind the link, reopen on fresh ports with copies sent to
	// the old ports and the new; a0's unread socket then closes on its
	// queue, and its Recv socket reopens a second time.
	{0, 20, 0, 0x46, 0, 0x10, 0, 0x46, 1, 0x3f, 5, 0x46, 2, 0x20, 10, 0x46, 8, 0x08, 15,
		4, 1, 0, 20, 0x46, 0, 0x30, 25},
}

// runLedgerScript runs one FuzzPacketLedger script and returns its world,
// closed: the first script byte picks one kernel or two shards and whether
// B sends at all; the next two are loss and duplication; the rest are 4-byte
// ops (op, x, y, time). It holds the identities at every horizon.
func runLedgerScript(t *testing.T, script []byte) *ledgerWorld {
	if len(script) < 3 {
		return nil
	}
	mode, loss, dup := script[0], float64(script[1]%128)/256, float64(script[2]%64)/256
	w := newLedgerWorld(mode&1 != 0, loss, dup)
	defer w.k.Close()
	ops := script[3:]
	if len(ops) > 4*48 {
		ops = ops[:4*48]
	}
	var horizons []time.Duration
	for i := 0; i+3 < len(ops); i += 4 {
		at := time.Duration(ops[i+3]) * 200 * time.Microsecond
		w.apply(ops[i], ops[i+1], ops[i+2], at, mode&2 != 0)
		horizons = append(horizons, at+time.Duration(ops[i+1])*10*time.Microsecond)
	}
	slices.Sort(horizons)
	for _, h := range horizons {
		w.k.RunUntil(h)
		w.check(t, false)
	}
	w.k.Run()
	w.check(t, true)
	return w
}

// FuzzPacketLedger drives random traffic and faults through two networks
// joined by a cut — consumer and Recv traffic, with and without payload
// copies, broadcasts, duplicates, loss, hosts and interfaces going down,
// closed, reopened and unbound ports, a full socket queue and TTL expiry —
// and holds
// the three ledger identities and every payload an endpoint saw or keeps at
// random horizons and at quiescence.
func FuzzPacketLedger(f *testing.F) {
	for _, s := range ledgerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runLedgerScript(t, script) })
}

// TestLedgerSeedsReachEveryEnding: between them, the seed scripts end a
// payload buffer's ownership in every way there is — a consumer, a Recv
// socket, a Recv proc's Free, a socket closing on its queue, a drop for each
// reason the world can produce, a broadcast and a duplicate copy, and a
// crossing of the cut — and a copy reaches a reopened socket's fresh port.
func TestLedgerSeedsReachEveryEnding(t *testing.T) {
	var total ledgerSide
	var crossed, closed uint64
	for _, s := range ledgerSeeds {
		w := runLedgerScript(t, s)
		for i, side := range w.sides {
			total.consumed += side.consumed
			total.received += side.received
			total.freed += side.freed
			total.broadcast += side.broadcast
			total.duplicated += side.duplicated
			total.reopened += side.reopened
			for r, n := range side.dropped {
				total.dropped[r] += n
			}
			closed += w.nets[i].ledger.bufReturned - uint64(side.freed)
		}
		crossed += w.nets[1].ledger.bufCrossedIn + w.nets[0].ledger.bufCrossedIn
	}
	type end struct {
		name string
		n    int
	}
	ends := []end{{"consumed", total.consumed}, {"received", total.received}, {"freed from Recv", total.freed},
		{"given back by a closing socket", int(closed)}, {"broadcast", total.broadcast},
		{"duplicated", total.duplicated}, {"crossing the cut", int(crossed)},
		{"taken at a reopened port", total.reopened}}
	for r, n := range total.dropped {
		// The world has no route whose station is missing from its segment.
		if DropReason(r) != DropNoStation {
			ends = append(ends, end{"dropped as " + DropReason(r).String(), n})
		}
	}
	for _, e := range ends {
		if e.n == 0 {
			t.Errorf("no seed reaches a payload copy %s", e.name)
		}
	}
	t.Logf("%v", ends)
}
