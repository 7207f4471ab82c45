package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDeliveryAllocatesOnePacketPerFrame: from UDPSock.send to the receiving
// proc's Recv, a datagram costs one allocation — the Packet, which the
// receiver keeps — however many hops it crosses: no closure per hop, no
// queue that reallocates as it slides, no waiter record per blocking Recv.
func TestDeliveryAllocatesOnePacketPerFrame(t *testing.T) {
	for _, tc := range []struct {
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
	} {
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
		if n := testing.AllocsPerRun(100, burst) / 4; n != 1 {
			t.Errorf("%s: %v allocations per delivered frame, want 1 (the Packet)", tc.name, n)
		}
		if want := 4 * 103; sink.Received != want {
			t.Errorf("%s: sink received %d datagrams, want %d", tc.name, sink.Received, want)
		}
		k.Close()
	}
}
