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
// "lost" to a host, which drops it as no route. Every host binds a sink
// (port 9), a socket a proc drains through Recv (7) and one nobody reads,
// whose four-deep queue fills (8); port 99 is bound nowhere.
type ledgerWorld struct {
	k     *sim.Kernel // drives the whole run
	nets  [2]*Network
	nodes []*Node // a0 a1 a2 rA b0 b1 b2 rB
	socks []*UDPSock
	lanA  *SharedSegment
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
		side := "ab"[i : i+1]
		var hosts [3]*Node
		for h := range hosts {
			hosts[h] = nw.NewHost(Addr(fmt.Sprintf("%s%d", side, h)))
		}
		r := nw.NewRouter(Addr("r"+strings.ToUpper(side)), 10*time.Microsecond)
		lanCfg := Ethernet10()
		lanCfg.DupProb = dup
		linkCfg := ATMLink()
		if i == 0 {
			lanCfg.LossProb, linkCfg.LossProb = loss, loss
		}
		lan := nw.NewSegment(side+"-lan", lanCfg)
		for _, n := range []*Node{hosts[0], hosts[1], r} {
			lan.Attach(n)
		}
		nw.NewLink(side+"-link", r, hosts[2], linkCfg)
		for _, h := range hosts {
			h.SetDefaultRoute(r.Name)
			NewSink(h, 9)
			rx := h.OpenUDP(7)
			h.Spawn("rx", func(p *sim.Proc) {
				for {
					rx.Recv(p, -1)
				}
			})
			full := h.OpenUDP(8)
			full.rq = sim.NewQueue[*Packet](h.net.K, 4)
			w.socks = append(w.socks, rx, full, h.sockets[9])
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

// at runs fn at virtual time t on the kernel of n's network.
func (w *ledgerWorld) at(n *Node, t time.Duration, fn func()) { n.net.K.At(t, fn) }

// apply schedules one 4-byte op of the fuzz script.
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
		src, n := pick(x), 1
		if op%6 == 1 {
			n = int(y)%64 + 1
		}
		w.at(src, t, func() {
			tx := src.OpenUDP(0)
			for i := 0; i < n; i++ {
				tx.SendSize(dst, port, int(x)*4)
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
	case 4: // close a socket
		s := w.socks[int(x)%len(w.socks)]
		w.at(s.node, t, s.Close)
	case 5: // change the A segment's loss
		w.at(w.nodes[0], t, func() { w.lanA.SetLossProb(float64(y) / 512) })
	}
}

// check asserts both identities and the free-list cap; at quiescence also
// that nothing is in flight and every frame that left one network reached
// the other.
func (w *ledgerWorld) check(t *testing.T, quiet bool) {
	t.Helper()
	mustBalanceNow(t, w.nets[:]...)
	var out, in uint64
	for _, nw := range w.nets {
		if len(nw.ledger.free) > freeCap {
			t.Fatalf("%s: free list %d frames, over its cap %d", nw.label(), len(nw.ledger.free), freeCap)
		}
		out += nw.ledger.crossedOut
		in += nw.ledger.crossedIn
		if quiet && nw.ledger.hops != 0 {
			t.Fatalf("%s: %d frames pending a hop at quiescence", nw.label(), nw.ledger.hops)
		}
	}
	if in > out || quiet && in != out {
		t.Fatalf("crossed out %d, crossed in %d", out, in)
	}
}

// FuzzPacketLedger drives random traffic and faults through two networks
// joined by a cut — sink and Recv traffic, broadcasts, duplicates, loss,
// hosts and interfaces going down, closed and unbound ports, a full socket
// queue and TTL expiry — and holds both ledger identities at random
// horizons and at quiescence. The first script byte picks one kernel or two
// shards and whether B sends at all; the next two are loss and duplication.
func FuzzPacketLedger(f *testing.F) {
	f.Add([]byte{0, 40, 30, 0, 0, 0x30, 1, 1, 3, 0x13, 2, 2, 1, 0x28, 3})
	f.Add([]byte{1, 0, 0, 1, 2, 0x10, 0, 1, 5, 0x08, 4, 0, 0, 0x39, 9})
	f.Add([]byte{3, 90, 60, 0, 0x81, 0x15, 0, 1, 0x82, 0xff, 2, 2, 7, 0, 20, 4, 3, 0, 30, 1, 0, 0x12, 40, 3, 4, 1, 50})
	f.Add([]byte{2, 10, 0, 1, 1, 0x24, 0, 0, 2, 0x09, 0, 5, 0, 200, 1, 0, 1, 0x38, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
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
	})
}
