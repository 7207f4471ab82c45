package mib

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestIPGroupForwardingFlag(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	host := nw.NewHost("h")
	router := nw.NewRouter("r", 0)
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(host)
	seg.Attach(router)
	hv := NewNodeView(host)
	rv := NewNodeView(router)
	fwd, _ := hv.Tree.Get(IPGroup.Append(1, 0))
	if fwd.Int != 2 {
		t.Fatalf("host ipForwarding = %d, want 2", fwd.Int)
	}
	fwd, _ = rv.Tree.Get(IPGroup.Append(1, 0))
	if fwd.Int != 1 {
		t.Fatalf("router ipForwarding = %d, want 1", fwd.Int)
	}
}

func TestIPGroupForwardedCounters(t *testing.T) {
	// a -- lan1 -- r -- lan2 -- b: the router's ipForwDatagrams and the
	// no-route counter must move.
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	r := nw.NewRouter("r", 0)
	lan1 := nw.NewSegment("lan1", netsim.Ethernet10())
	lan2 := nw.NewSegment("lan2", netsim.Ethernet10())
	lan1.Attach(a)
	lan1.Attach(r)
	lan2.Attach(r)
	lan2.Attach(b)
	a.SetDefaultRoute("r")
	b.SetDefaultRoute("r")
	rv := NewNodeView(r)
	netsim.NewSink(b, 9)
	sock := a.OpenUDP(0)
	k.After(0, func() {
		sock.SendSize("b", 9, 100)
		sock.SendSize("ghost", 9, 100) // no route at r
	})
	k.Run()
	fwd, _ := rv.Tree.Get(IPGroup.Append(6, 0))
	if fwd.Uint < 1 {
		t.Fatalf("ipForwDatagrams = %d", fwd.Uint)
	}
	noRoute, _ := rv.Tree.Get(IPGroup.Append(11, 0))
	if noRoute.Uint != 1 {
		t.Fatalf("no-route counter = %d, want 1", noRoute.Uint)
	}
}

func TestIfXTableCounter64DoesNotWrap(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	ifa := seg.Attach(a)
	seg.Attach(b)
	v := NewNodeView(a)
	// Force the 32-bit counter past the wrap point.
	ifa.Counters.OutOctets = 1<<32 + 1000
	c32, _ := v.Tree.Get(IfEntry.Append(16, 1))
	c64, _ := v.Tree.Get(IfXEntry.Append(10, 1))
	if c32.Uint != 1000 {
		t.Fatalf("ifOutOctets wrapped to %d, want 1000", c32.Uint)
	}
	if c64.Uint != 1<<32+1000 || c64.Kind != KindCounter64 {
		t.Fatalf("ifHCOutOctets = %+v", c64)
	}
}

func TestIfXTableSpeedAndName(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	seg := nw.NewSegment("fddi-ring", netsim.FDDI())
	seg.Attach(a)
	seg.Attach(b)
	v := NewNodeView(a)
	name, _ := v.Tree.Get(IfXEntry.Append(1, 1))
	if string(name.Str) != "fddi-ring" {
		t.Fatalf("ifName = %q", name.Str)
	}
	speed, _ := v.Tree.Get(IfXEntry.Append(15, 1))
	if speed.Uint != 100 {
		t.Fatalf("ifHighSpeed = %d Mb/s, want 100", speed.Uint)
	}
}

func TestFullNodeViewWalkIsOrdered(t *testing.T) {
	// With all groups registered, a full-tree walk must still be strictly
	// ordered (the agent invariant GetNext relies on).
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(a)
	seg.Attach(b)
	netsim.NewSink(b, 9)
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 10}).Run()
	k.Run()
	v := NewNodeView(a)
	all := walk(v.Tree, nil)
	if len(all) < 30 {
		t.Fatalf("full view has only %d objects", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].OID.Cmp(all[i].OID) >= 0 {
			t.Fatalf("walk out of order: %s >= %s", all[i-1].OID, all[i].OID)
		}
	}
}
