package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// twoHosts builds a and b on a shared Ethernet.
func twoHosts(t testing.TB) (*sim.Kernel, *Network, *Node, *Node) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	seg := nw.NewSegment("lan", Ethernet10())
	seg.Attach(a)
	seg.Attach(b)
	return k, nw, a, b
}

func TestDatagramDelivery(t *testing.T) {
	k, _, a, b := twoHosts(t)
	rx := b.OpenUDP(9)
	var got *Packet
	b.Spawn("rx", func(p *sim.Proc) {
		got, _ = rx.Recv(p, -1)
	})
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendTo("b", 9, []byte("hello")) })
	k.Run()
	if got == nil {
		t.Fatal("no packet delivered")
	}
	if string(got.Payload) != "hello" || got.Src != "a" || got.SrcPort != tx.Port() {
		t.Fatalf("got %+v", got)
	}
}

func TestDeliveryLatencyMatchesPhysics(t *testing.T) {
	k, _, a, b := twoHosts(t)
	rx := b.OpenUDP(9)
	var at time.Duration
	b.Spawn("rx", func(p *sim.Proc) {
		if _, ok := rx.Recv(p, -1); ok {
			at = p.Now()
		}
	})
	tx := a.OpenUDP(0)
	size := 1000
	k.After(0, func() { tx.SendSize("b", 9, size) })
	k.Run()
	cfg := Ethernet10()
	want := cfg.txTime(&Packet{Size: size}) + cfg.ArbDelay + cfg.PropDelay
	if at != want {
		t.Fatalf("latency = %v, want %v", at, want)
	}
}

func TestSharedSegmentSerializes(t *testing.T) {
	// Two senders transmitting simultaneously: second frame must wait for
	// the first, so arrivals are spaced by at least one tx time.
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	c := nw.NewHost("c")
	seg := nw.NewSegment("lan", Ethernet10())
	seg.Attach(a)
	seg.Attach(b)
	seg.Attach(c)
	rx := c.OpenUDP(9)
	var arrivals []time.Duration
	c.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, ok := rx.Recv(p, -1); ok {
				arrivals = append(arrivals, p.Now())
			}
		}
	})
	sa, sb := a.OpenUDP(0), b.OpenUDP(0)
	k.After(0, func() {
		sa.SendSize("c", 9, 1000)
		sb.SendSize("c", 9, 1000)
	})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	cfg := Ethernet10()
	gap := arrivals[1] - arrivals[0]
	txT := cfg.txTime(&Packet{Size: 1000})
	if gap < txT {
		t.Fatalf("arrival gap %v < tx time %v: medium did not serialize", gap, txT)
	}
	if seg.Stats().Frames != 2 {
		t.Fatalf("segment frames = %d, want 2", seg.Stats().Frames)
	}
}

func TestTapSeesAllFrames(t *testing.T) {
	k, _, a, b := twoHosts(t)
	seg := a.Ifaces()[0].Medium().(*SharedSegment)
	var seen []Frame
	seg.Tap(func(f Frame) { seen = append(seen, f) })
	NewSink(b, 9)
	tx := a.OpenUDP(0)
	k.After(0, func() {
		tx.SendSize("b", 9, 100)
		tx.SendSize("b", 9, 200)
	})
	k.Run()
	if len(seen) != 2 {
		t.Fatalf("tap saw %d frames, want 2", len(seen))
	}
	if seen[0].Pkt.Size != 100 || seen[1].Pkt.Size != 200 {
		t.Fatalf("tap order wrong: %v, %v", seen[0].Pkt.Size, seen[1].Pkt.Size)
	}
}

func TestLossModel(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 7)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	cfg := Ethernet10()
	cfg.LossProb = 0.3
	seg := nw.NewSegment("lossy", cfg)
	seg.Attach(a)
	seg.Attach(b)
	sink := NewSink(b, 9)
	src := &CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 1000}
	src.Run()
	k.Run()
	lossRate := 1 - float64(sink.Received)/float64(src.Sent)
	if lossRate < 0.2 || lossRate > 0.4 {
		t.Fatalf("loss rate = %.3f, want ≈0.3", lossRate)
	}
	if seg.Stats().Errors == 0 {
		t.Fatal("segment error counter not incremented")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	// Offered load far above the 10 Mb/s wire: egress queue must overflow.
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	seg := nw.NewSegment("lan", Ethernet10())
	ifa := seg.Attach(a)
	seg.Attach(b)
	NewSink(b, 9)
	// 1470B every 100µs ≈ 120 Mb/s offered onto 10 Mb/s.
	src := &CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 1470, Interval: 100 * time.Microsecond, Count: 2000}
	src.Run()
	k.Run()
	if ifa.Counters.OutDiscards == 0 {
		t.Fatal("no egress drops under 12x overload")
	}
}

func TestRouterForwarding(t *testing.T) {
	// a -- lan1 -- r -- lan2 -- b
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	r := nw.NewRouter("r", 100*time.Microsecond)
	lan1 := nw.NewSegment("lan1", Ethernet10())
	lan2 := nw.NewSegment("lan2", Ethernet10())
	lan1.Attach(a)
	lan1.Attach(r)
	lan2.Attach(r)
	lan2.Attach(b)
	a.SetDefaultRoute("r")
	b.SetDefaultRoute("r")
	sink := NewSink(b, 9)
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendSize("b", 9, 500) })
	k.Run()
	if sink.Received != 1 {
		t.Fatalf("received %d, want 1", sink.Received)
	}
}

func TestAsymmetricRoutes(t *testing.T) {
	// Forward path a->b works; reverse path b->a is routed into a black
	// hole. This is the §4.3 scenario: receiving from a host does not mean
	// you can transmit to it.
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	r1 := nw.NewRouter("r1", 0)
	r2 := nw.NewRouter("r2", 0) // reverse-path router, broken
	lanA := nw.NewSegment("lanA", Ethernet10())
	lanB := nw.NewSegment("lanB", Ethernet10())
	lanA.Attach(a)
	lanA.Attach(r1)
	lanA.Attach(r2)
	lanB.Attach(b)
	lanB.Attach(r1)
	lanB.Attach(r2)
	a.AddRoute("b", "r1")
	b.AddRoute("a", "r2") // asymmetric reverse
	r2.SetUp(false)       // and broken
	sinkB := NewSink(b, 9)
	sinkA := NewSink(a, 9)
	ta := a.OpenUDP(0)
	tb := b.OpenUDP(0)
	k.After(0, func() {
		ta.SendSize("b", 9, 100)
		tb.SendSize("a", 9, 100)
	})
	k.Run()
	if sinkB.Received != 1 {
		t.Fatalf("forward path broken: b received %d", sinkB.Received)
	}
	if sinkA.Received != 0 {
		t.Fatalf("reverse path should be black-holed, a received %d", sinkA.Received)
	}
}

func TestSwitchedMediaNoSniffing(t *testing.T) {
	// Hosts on a switch: a third host's links see none of a->b traffic.
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	sw := nw.NewSwitch("sw", 10*time.Microsecond)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	c := nw.NewHost("c")
	nw.NewLink("a-sw", a, sw, ATMLink())
	nw.NewLink("b-sw", b, sw, ATMLink())
	lc := nw.NewLink("c-sw", c, sw, ATMLink())
	for _, h := range []*Node{a, b, c} {
		h.SetDefaultRoute("sw")
	}
	sink := NewSink(b, 9)
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendSize("b", 9, 100) })
	k.Run()
	if sink.Received != 1 {
		t.Fatalf("switched delivery failed: %d", sink.Received)
	}
	cIf := lc.Ifaces()
	for _, ifc := range cIf {
		if ifc.Counters.InPkts+ifc.Counters.OutPkts > 0 {
			t.Fatal("third-party port observed unicast traffic on switched fabric")
		}
	}
}

func TestATMCellTax(t *testing.T) {
	cfg := ATMLink()
	// 48 bytes of payload + 28 header = 76 bytes -> 2 cells -> 106 bytes.
	bits := cfg.wireBits(&Packet{Size: 48})
	if bits != 106*8 {
		t.Fatalf("wireBits = %d, want %d", bits, 106*8)
	}
}

func TestNodeFailureInjection(t *testing.T) {
	k, _, a, b := twoHosts(t)
	sink := NewSink(b, 9)
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendSize("b", 9, 100) })
	k.After(time.Millisecond, func() { b.SetUp(false) })
	k.After(2*time.Millisecond, func() { tx.SendSize("b", 9, 100) })
	k.Run()
	if sink.Received != 1 {
		t.Fatalf("received %d, want 1 (second send after failure)", sink.Received)
	}
	if b.Counters.DownDrops == 0 {
		t.Fatal("down node did not count dropped packet")
	}
}

func TestBroadcastOnSegment(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	hosts := []*Node{nw.NewHost("a"), nw.NewHost("b"), nw.NewHost("c"), nw.NewHost("d")}
	seg := nw.NewSegment("lan", Ethernet10())
	for _, h := range hosts {
		seg.Attach(h)
	}
	sinks := make([]*Sink, 0, 3)
	for _, h := range hosts[1:] {
		sinks = append(sinks, NewSink(h, 9))
	}
	tx := hosts[0].OpenUDP(0)
	k.After(0, func() {
		tx.send(Broadcast, 9, nil, 64, UDP)
	})
	k.Run()
	for i, s := range sinks {
		if s.Received != 1 {
			t.Fatalf("host %d received %d broadcasts, want 1", i+1, s.Received)
		}
	}
	if seg.Stats().Broadcasts != 1 {
		t.Fatalf("broadcast counter = %d", seg.Stats().Broadcasts)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	_, _, a, _ := twoHosts(t)
	s1 := a.OpenUDP(0)
	s2 := a.OpenUDP(0)
	if s1.Port() == s2.Port() {
		t.Fatal("ephemeral ports collide")
	}
}

func TestSocketCloseUnbinds(t *testing.T) {
	_, _, a, _ := twoHosts(t)
	s := a.OpenUDP(500)
	s.Close()
	s2 := a.OpenUDP(500) // must not panic
	if s2.Port() != 500 {
		t.Fatal("rebind failed")
	}
}

func TestIfaceCountersMonotonic(t *testing.T) {
	// Property: counters never decrease across a run, and octets >= pkts
	// (packets have positive size).
	f := func(sizes []uint8) bool {
		k := sim.NewKernel()
		defer k.Close()
		nw := New(k, 3)
		a := nw.NewHost("a")
		b := nw.NewHost("b")
		seg := nw.NewSegment("lan", Ethernet10())
		ifa := seg.Attach(a)
		seg.Attach(b)
		NewSink(b, 9)
		tx := a.OpenUDP(0)
		var prev IfaceCounters
		okAll := true
		for i, sz := range sizes {
			size := int(sz) + 1
			at := time.Duration(i) * 10 * time.Millisecond
			k.At(at, func() { tx.SendSize("b", 9, size) })
		}
		k.Spawn("checker", func(p *sim.Proc) {
			for i := 0; i < len(sizes); i++ {
				p.Sleep(10 * time.Millisecond)
				c := ifa.Counters
				if c.OutPkts < prev.OutPkts || c.OutOctets < prev.OutOctets {
					okAll = false
				}
				prev = c
			}
		})
		k.Run()
		return okAll && ifa.Counters.OutPkts == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCBRSourceRate(t *testing.T) {
	k, _, a, b := twoHosts(t)
	sink := NewSink(b, 9)
	src := &CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: 10 * time.Millisecond, Count: 50}
	src.Run()
	k.Run()
	if sink.Received != 50 {
		t.Fatalf("received %d, want 50", sink.Received)
	}
	// Last message sent at 49*10ms.
	if sink.LastAt < 490*time.Millisecond {
		t.Fatalf("last arrival at %v, want >= 490ms", sink.LastAt)
	}
}

func TestTTLExpiry(t *testing.T) {
	// A routing loop must not run forever: TTL kills looping packets.
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	r1 := nw.NewRouter("r1", 0)
	r2 := nw.NewRouter("r2", 0)
	a := nw.NewHost("a")
	lan := nw.NewSegment("lan", Ethernet10())
	lan.Attach(a)
	lan.Attach(r1)
	lan.Attach(r2)
	// Loop: r1 sends "ghost" to r2, r2 back to r1.
	r1.AddRoute("ghost", "r2")
	r2.AddRoute("ghost", "r1")
	a.AddRoute("ghost", "r1")
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendSize("ghost", 9, 100) })
	k.Run()
	if r1.Counters.TTLExpired+r2.Counters.TTLExpired != 1 {
		t.Fatalf("TTL expiry count = %d, want 1",
			r1.Counters.TTLExpired+r2.Counters.TTLExpired)
	}
}

func TestDeterministicNetwork(t *testing.T) {
	run := func() (int, uint64) {
		k := sim.NewKernel()
		defer k.Close()
		nw := New(k, 99)
		a := nw.NewHost("a")
		b := nw.NewHost("b")
		cfg := Ethernet10()
		cfg.LossProb = 0.1
		seg := nw.NewSegment("lan", cfg)
		seg.Attach(a)
		seg.Attach(b)
		sink := NewSink(b, 9)
		(&OnOffSource{Src: a, Dst: "b", DstPort: 9, Size: 200, PeakBps: 2_000_000,
			MeanOn: 20 * time.Millisecond, MeanOff: 20 * time.Millisecond, Seed: 5, Until: time.Second}).Run()
		k.Run()
		return sink.Received, seg.Stats().Octets
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1 != r2 || o1 != o2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", r1, o1, r2, o2)
	}
}
