package experiments

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/sim"
)

// E8 reproduces §4.3's instrumentation-point analysis for the reachability
// metric. A media-layer monitor infers "b is reachable" by sniffing the
// shared wire for packets whose source address is b; the paper points out
// two failure modes: (1) with asymmetric routes, "receiving packets from a
// host does not mean that you can transmit packets to that host"; (2) "in
// a switched environment, sniffing may not be possible".
func E8(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E8",
		Title: "Reachability verdicts by instrumentation point (monitor on a, target b)",
		Paper: "media-layer sniffing misleads under asymmetric routes and is impossible on switched media; application layer measures all metrics accurately",
		Columns: []string{"scenario", "true a->b", "media-layer verdict", "app-layer verdict",
			"media correct"},
	}
	_ = quick

	// Each scenario wires hosts a and b on a fresh network and returns the
	// shared segment a media-layer monitor can tap (nil: there is none).
	scenarios := []struct {
		name, truth string
		seed        int64
		wire        func(nw *netsim.Network, a, b *netsim.Node) *netsim.SharedSegment
	}{
		{"shared LAN, healthy", "reachable", 31, func(nw *netsim.Network, a, b *netsim.Node) *netsim.SharedSegment {
			return lan(nw, netsim.Ethernet10(), a, b)
		}},
		{"asymmetric: b->a flows, a->b black-holed", "unreachable", 32, func(nw *netsim.Network, a, b *netsim.Node) *netsim.SharedSegment {
			r1 := nw.NewRouter("r1", 0) // a->b path, broken
			seg := lan(nw, netsim.Ethernet10(), a, b, r1)
			// Force a's traffic to b through the dead router; b replies
			// directly over the shared wire (asymmetric).
			a.AddRoute("b", "r1")
			r1.SetUp(false)
			return seg
		}},
		{"switched fabric (no shared wire)", "reachable", 33, func(nw *netsim.Network, a, b *netsim.Node) *netsim.SharedSegment {
			sw := nw.NewSwitch("sw", 10*time.Microsecond)
			nw.NewLink("a-sw", a, sw, netsim.ATMLink())
			nw.NewLink("b-sw", b, sw, netsim.ATMLink())
			a.SetDefaultRoute("sw")
			b.SetDefaultRoute("sw")
			return nil
		}},
		{"target host down", "unreachable", 34, func(nw *netsim.Network, a, b *netsim.Node) *netsim.SharedSegment {
			seg := lan(nw, netsim.Ethernet10(), a, b)
			b.SetUp(false)
			return seg
		}},
	}
	for _, sc := range scenarios {
		k := newKernel()
		nw := netsim.New(k, sc.seed)
		a, b := nw.NewHost("a"), nw.NewHost("b")
		var media *mediaView
		if seg := sc.wire(nw, a, b); seg != nil {
			media = mediaMonitor(seg, "b")
		}
		app := appMonitor(k, nw, a, "b")
		if b.Up() {
			beacon(b, "a")
		}
		k.RunUntil(5 * time.Second)
		k.Close()
		mediaVerdict, ok := "no visibility", "NO"
		if media != nil {
			mediaVerdict = verdict(media.seen)
			if mediaVerdict == sc.truth {
				ok = "yes"
			}
		}
		t.AddRow(sc.name, sc.truth, mediaVerdict, verdict(*app), ok)
	}
	t.AddNote("media-layer inference: 'saw a frame sourced by b on the wire' — requires periodic traffic from b (a beacon here)")
	t.AddNote("application-layer sensor: NTTCP echo over the actual a->b path")
	return t
}

type mediaView struct{ seen bool }

// mediaMonitor taps a shared segment and records frames sourced by target.
func mediaMonitor(seg *netsim.SharedSegment, target netsim.Addr) *mediaView {
	v := &mediaView{}
	seg.Tap(func(f netsim.Frame) {
		if f.Pkt.Src == target && !f.Err {
			v.seen = true
		}
	})
	return v
}

// appMonitor runs an NTTCP reachability probe from a to target and writes
// the verdict into the returned bool.
func appMonitor(k *sim.Kernel, nw *netsim.Network, a *netsim.Node, target netsim.Addr) *bool {
	reached := new(bool)
	if nw.Node(target) != nil && nw.Node(target).Up() {
		nttcp.StartServer(nw.Node(target), 0)
	}
	c := nttcp.NewClient(a, nttcp.Config{Timeout: 500 * time.Millisecond})
	a.Spawn("app-monitor", func(p *sim.Proc) {
		p.Sleep(time.Second) // let beacons establish the media view first
		ok, _ := c.Reachability(p, target, 0)
		*reached = ok
	})
	return reached
}

// beacon makes host emit periodic application traffic toward dst — the
// "periodic messages sent from the source host of interest" §4.3 requires
// for media-layer reachability inference.
func beacon(host *netsim.Node, dst netsim.Addr) {
	sock := host.OpenUDP(0)
	host.Spawn("beacon", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			sock.SendSize(dst, 7, 64)
			p.Sleep(100 * time.Millisecond)
		}
	})
}

func verdict(reached bool) string {
	if reached {
		return "reachable"
	}
	return "unreachable"
}
