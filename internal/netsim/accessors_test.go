package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// Accessor and stringer behavior pinned in one place.

func TestAccessorsAndStringers(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	r := nw.NewRouter("r", time.Microsecond)
	sw := nw.NewSwitch("sw", time.Microsecond)
	seg := nw.NewSegment("lan", Ethernet100())
	ifa := seg.Attach(a)
	seg.Attach(b)
	link := nw.NewLink("r-sw", r, sw, FDDI())

	if nw.Node("a") != a || nw.Node("ghost") != nil {
		t.Fatal("Node lookup broken")
	}
	nodes := nw.Nodes()
	if len(nodes) != 4 || nodes[0] != a || nodes[3] != sw {
		t.Fatalf("Nodes order: %v", nodes)
	}
	if len(nw.Media()) != 2 {
		t.Fatalf("Media: %d", len(nw.Media()))
	}
	if a.Network() != nw || !a.Up() {
		t.Fatal("node accessors")
	}
	if a.LocalTime() != k.Now() {
		t.Fatal("LocalTime without clock should be sim time")
	}
	if ifa.Node() != a || ifa.Medium() != seg {
		t.Fatal("iface accessors")
	}
	if ifa.SpeedBps() != 100_000_000 {
		t.Fatalf("SpeedBps = %d", ifa.SpeedBps())
	}
	if ifa.queue.Len() != 0 {
		t.Fatal("fresh queue nonempty")
	}
	if seg.Name() != "lan" || seg.Config().RateBps != 100_000_000 {
		t.Fatal("segment accessors")
	}
	if link.Name() != "r-sw" || link.Config().RateBps != 100_000_000 {
		t.Fatal("link accessors")
	}
	if RoleHost.String() != "host" || RoleRouter.String() != "router" || RoleSwitch.String() != "switch" {
		t.Fatal("role strings")
	}
	if UDP.String() != "udp" || RDP.String() != "rdp" {
		t.Fatal("proto strings")
	}
}

func TestSetLossProbRuntime(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	seg := nw.NewSegment("lan", Ethernet10())
	seg.Attach(a)
	seg.Attach(b)
	sink := NewSink(b, 9)
	seg.SetLossProb(1.0) // everything corrupted
	(&CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 20}).Run()
	k.Run()
	if sink.Received != 0 {
		t.Fatalf("received %d with 100%% loss", sink.Received)
	}
	if seg.Config().LossProb != 1.0 {
		t.Fatal("config not updated")
	}
}

func TestFDDIAndEthernet100Configs(t *testing.T) {
	if FDDI().RateBps != 100_000_000 || Ethernet100().RateBps != 100_000_000 {
		t.Fatal("rates")
	}
	if FDDI().ArbDelay <= Ethernet100().ArbDelay {
		t.Fatal("FDDI token rotation should exceed switched-era Ethernet arbitration")
	}
}
