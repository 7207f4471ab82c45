package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// deliveryTopologies are the three paths a datagram from a to c may take.
var deliveryTopologies = []struct {
	name  string
	build func(nw *Network, a, c *Node)
}{
	{"shared segment", func(nw *Network, a, c *Node) {
		lan := nw.NewSegment("lan", Ethernet100())
		lan.Attach(a)
		lan.Attach(c)
	}},
	{"two segments and a router", func(nw *Network, a, c *Node) {
		r := nw.NewRouter("r", 10*time.Microsecond)
		lan1 := nw.NewSegment("lan1", Ethernet100())
		lan2 := nw.NewSegment("lan2", Ethernet100())
		lan1.Attach(a)
		lan1.Attach(r)
		lan2.Attach(r)
		lan2.Attach(c)
		a.SetDefaultRoute("r")
		c.SetDefaultRoute("r")
	}},
	{"two links and a switch", func(nw *Network, a, c *Node) {
		sw := nw.NewSwitch("sw", 5*time.Microsecond)
		nw.NewLink("a-sw", a, sw, ATMLink())
		nw.NewLink("sw-c", sw, c, ATMLink())
		a.SetDefaultRoute("sw")
		c.SetDefaultRoute("sw")
	}},
}

// TestDeliveryAllocatesZeroPerSinkFrame: from UDPSock.send to a Sink, a
// datagram in steady state costs no allocation however many hops it
// crosses: its frame comes from the network's free list and goes back when
// the sink has counted it, and no hop costs a closure, a queue that
// reallocates as it slides, or a waiter record.
func TestDeliveryAllocatesZeroPerSinkFrame(t *testing.T) {
	for _, tc := range deliveryTopologies {
		k := sim.NewKernel()
		nw := New(k, 1)
		a, c := nw.NewHost("a"), nw.NewHost("c")
		tc.build(nw, a, c)
		sink := NewSink(c, 9)
		sock := a.OpenUDP(0)
		// A burst deeper than one frame, so the interface queue and the
		// segment backlog are exercised and not just passed through.
		burst := func() {
			for i := 0; i < 4; i++ {
				sock.SendSize("c", 9, 100)
			}
			k.Run()
		}
		burst()
		burst()
		if n := testing.AllocsPerRun(100, burst) / 4; n != 0 {
			t.Errorf("%s: %v allocations per sink-consumed frame, want 0", tc.name, n)
		}
		if want := 4 * 103; sink.Received != want {
			t.Errorf("%s: sink received %d datagrams, want %d", tc.name, sink.Received, want)
		}
		k.Close()
	}
}

// TestRecvDeliveryAllocatesOnePacketPerFrame: a datagram Recv hands to a
// proc that never frees it costs exactly one allocation, the Packet the proc
// keeps — nothing per hop, and no waiter record per blocking Recv.
func TestRecvDeliveryAllocatesOnePacketPerFrame(t *testing.T) {
	for _, tc := range deliveryTopologies {
		k := sim.NewKernel()
		nw := New(k, 1)
		a, c := nw.NewHost("a"), nw.NewHost("c")
		tc.build(nw, a, c)
		rx := c.OpenUDP(9)
		received := 0
		c.Spawn("rx", func(p *sim.Proc) {
			for {
				if _, ok := rx.Recv(p, -1); ok {
					received++
				}
			}
		})
		sock := a.OpenUDP(0)
		burst := func() {
			for i := 0; i < 4; i++ {
				sock.SendSize("c", 9, 100)
			}
			k.Run()
		}
		burst()
		burst()
		if n := testing.AllocsPerRun(100, burst) / 4; n != 1 {
			t.Errorf("%s: %v allocations per Recv-delivered frame, want 1 (the Packet)", tc.name, n)
		}
		if want := 4 * 103; received != want {
			t.Errorf("%s: proc received %d datagrams, want %d", tc.name, received, want)
		}
		k.Close()
	}
}

// TestFreedRecvFrameAllocatesNothing: a proc that gives each frame back
// with Free once it has read it costs nothing per datagram on any path: the
// next send takes the frame, and the payload buffer of a SendCopy, off the
// network's lists again.
func TestFreedRecvFrameAllocatesNothing(t *testing.T) {
	for _, tc := range deliveryTopologies {
		k := sim.NewKernel()
		nw := New(k, 1)
		a, c := nw.NewHost("a"), nw.NewHost("c")
		tc.build(nw, a, c)
		rx := c.OpenUDP(9)
		received, bad := 0, 0
		c.Spawn("rx", func(p *sim.Proc) {
			for {
				pkt, ok := rx.Recv(p, -1)
				if !ok {
					continue
				}
				received++
				if len(pkt.Payload) != 512 || pkt.Payload[0] != pkt.Payload[511] {
					bad++
				}
				rx.Free(pkt)
			}
		})
		sock := a.OpenUDP(0)
		msg := make([]byte, 512)
		burst := func() {
			for i := 0; i < 4; i++ {
				msg[0], msg[511] = byte(i), byte(i)
				sock.SendCopy("c", 9, msg, 512)
			}
			k.Run()
		}
		burst()
		burst()
		if n := testing.AllocsPerRun(100, burst) / 4; n != 0 {
			t.Errorf("%s: %v allocations per freed Recv frame, want 0", tc.name, n)
		}
		if want := 4 * 103; received != want || bad != 0 {
			t.Errorf("%s: proc received %d datagrams (%d corrupt), want %d", tc.name, received, bad, want)
		}
		k.Close()
	}
}

// TestOpenUDPAllocatesOneObject: once a node's socket table is warm,
// opening a socket and closing it costs one allocation, the socket, which
// carries its receive queue.
func TestOpenUDPAllocatesOneObject(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a := New(k, 1).NewHost("a")
	a.OpenUDP(0).Close()
	if n := testing.AllocsPerRun(200, func() { a.OpenUDP(0).Close() }); n != 1 {
		t.Fatalf("a warm OpenUDP + Close allocates %v objects, want 1 (the socket)", n)
	}
}

// TestReopenAllocatesNothing: once a node's socket table is warm, closing a
// socket and reopening it on a fresh port costs no allocation: an NTTCP
// client's adapter does this for each call.
func TestReopenAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	s := New(k, 1).NewHost("a").OpenUDP(0)
	s.Close()
	s.Reopen()
	if n := testing.AllocsPerRun(200, func() { s.Close(); s.Reopen() }); n != 0 {
		t.Fatalf("a warm Close + Reopen allocates %v objects, want 0", n)
	}
}

// TestSendCopyToConsumerAllocatesNothing: a SendCopy datagram a consumer
// takes costs no allocation on any path once warm: its frame and its
// payload buffer both go back to the network when the consumer returns, and
// the consumer reads the sender's bytes, not the sender's slice.
func TestSendCopyToConsumerAllocatesNothing(t *testing.T) {
	for _, tc := range deliveryTopologies {
		k := sim.NewKernel()
		nw := New(k, 1)
		a, c := nw.NewHost("a"), nw.NewHost("c")
		tc.build(nw, a, c)
		received, bad := 0, 0
		c.OpenUDP(9).Consume(func(p *Packet) {
			received++
			if len(p.Payload) != 2048 || p.Payload[0] != p.Payload[2047] {
				bad++
			}
		})
		sock := a.OpenUDP(0)
		msg := make([]byte, 2048)
		burst := func() {
			for i := 0; i < 4; i++ {
				msg[0], msg[2047] = byte(i), byte(i)
				sock.SendCopy("c", 9, msg, 8192)
			}
			k.Run()
		}
		burst()
		burst()
		if n := testing.AllocsPerRun(100, burst) / 4; n != 0 {
			t.Errorf("%s: %v allocations per consumed SendCopy datagram, want 0", tc.name, n)
		}
		if want := 4 * 103; received != want || bad != 0 {
			t.Errorf("%s: consumer received %d datagrams (%d wrong), want %d", tc.name, received, bad, want)
		}
		if nw.ledger.bufAllocated > 4 {
			t.Errorf("%s: %d payload buffers allocated for bursts of 4", tc.name, nw.ledger.bufAllocated)
		}
		k.Close()
	}
}
