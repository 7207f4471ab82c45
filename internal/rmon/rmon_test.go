package rmon

import (
	"testing"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// fixture builds a LAN with traffic endpoints and a probe host.
func fixture(t testing.TB, cfg netsim.MediumConfig) (*sim.Kernel, *netsim.Network, *netsim.SharedSegment, *Probe, *netsim.Node, *netsim.Node) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 31)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	probeHost := nw.NewHost("probe")
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(a)
	seg.Attach(b)
	seg.Attach(probeHost)
	probe := NewProbe(probeHost, seg)
	return k, nw, seg, probe, a, b
}

// walkOIDs lists the OIDs bound under prefix in traversal order: GetNext
// from prefix until the answer leaves it, as an SNMP walk does.
func walkOIDs(tree *mib.Tree, prefix mib.OID) []mib.OID {
	var out []mib.OID
	for oid := prefix; ; {
		next, _, ok := tree.Next(oid)
		if !ok || !next.HasPrefix(prefix) {
			return out
		}
		out = append(out, next)
		oid = next
	}
}

func TestEtherStatsCounting(t *testing.T) {
	k, _, _, probe, a, b := fixture(t, netsim.Ethernet10())
	netsim.NewSink(b, 9)
	src := &netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 100}
	src.Run()
	k.Run()
	if probe.Stats.Pkts != 100 {
		t.Fatalf("probe pkts = %d, want 100", probe.Stats.Pkts)
	}
	// wire bytes = 100 payload + 28 header + 38 framing = 166 each
	if probe.Stats.Octets != 16600 {
		t.Fatalf("probe octets = %d, want 16600", probe.Stats.Octets)
	}
	if probe.Stats.Pkts128to255 != 100 {
		t.Fatalf("size bucket: %+v", probe.Stats)
	}
}

func TestProbeSeesErrorsAndKeepsCountingUnderLoad(t *testing.T) {
	cfg := netsim.Ethernet10()
	cfg.LossProb = 0.05
	k, _, _, probe, a, b := fixture(t, cfg)
	netsim.NewSink(b, 9)
	// Offered ≈ 9.8 Mb/s of 10 Mb/s: heavy load.
	src := &netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 1200, Interval: time.Millisecond, Count: 3000}
	src.Run()
	k.Run()
	if probe.Stats.CRCAlignErrors == 0 {
		t.Fatal("probe saw no corrupted frames at 5% loss")
	}
	// Passive collection is lossless: every frame on the wire is counted.
	if probe.Stats.Pkts != uint64(src.Sent)-a.Ifaces()[0].Counters.OutDiscards {
		t.Fatalf("probe pkts = %d, sent = %d, egress drops = %d",
			probe.Stats.Pkts, src.Sent, a.Ifaces()[0].Counters.OutDiscards)
	}
}

func TestAlarmRisingFallingHysteresis(t *testing.T) {
	k, _, _, probe, a, b := fixture(t, netsim.Ethernet10())
	netsim.NewSink(b, 9)
	tree := mib.NewTree()
	probe.Register(tree)
	rising := probe.AddEvent("high traffic", true, false)
	falling := probe.AddEvent("traffic normal", true, false)
	// Delta of etherStatsPkts (col 5) per second: rising at 50 pkts/s.
	alarm := probe.AddAlarm(tree, Alarm{
		Interval:     time.Second,
		Variable:     EtherStatsOID(5),
		SampleType:   DeltaValue,
		Rising:       50,
		Falling:      10,
		RisingEvent:  rising,
		FallingEvent: falling,
	})
	// Burst from t=2s to t=4s at 100 pkts/s; quiet otherwise.
	k.At(2*time.Second, func() {
		(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: 10 * time.Millisecond, Count: 200}).Run()
	})
	k.RunUntil(10 * time.Second)
	if alarm.RisingFired != 1 {
		t.Fatalf("rising fired %d times, want exactly 1 (hysteresis)", alarm.RisingFired)
	}
	if alarm.FallingFired < 1 {
		t.Fatalf("falling fired %d times, want >= 1", alarm.FallingFired)
	}
	if len(rising.Entries) != 1 || len(falling.Entries) < 1 {
		t.Fatalf("event logs: rising %d, falling %d", len(rising.Entries), len(falling.Entries))
	}
}

func TestAlarmTrapEmission(t *testing.T) {
	k, _, _, probe, a, b := fixture(t, netsim.Ethernet10())
	netsim.NewSink(b, 9)
	tree := mib.NewTree()
	probe.Register(tree)
	var traps []int
	probe.TrapFunc = func(generic, specific int, binds []VarBind) {
		traps = append(traps, specific)
	}
	ev := probe.AddEvent("threshold", false, true)
	probe.AddAlarm(tree, Alarm{
		Interval:    500 * time.Millisecond,
		Variable:    EtherStatsOID(4), // octets
		SampleType:  AbsoluteValue,
		Rising:      1000,
		Falling:     -1,
		RisingEvent: ev,
	})
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 500, Interval: 50 * time.Millisecond, Count: 50}).Run()
	k.RunUntil(5 * time.Second)
	if len(traps) != 1 || traps[0] != 1 {
		t.Fatalf("traps = %v, want one rising (specific=1)", traps)
	}
}

func TestRegisterExposesTables(t *testing.T) {
	k, _, _, probe, a, b := fixture(t, netsim.Ethernet10())
	netsim.NewSink(b, 9)
	tree := mib.NewTree()
	probe.Register(tree)
	probe.AddEvent("e", true, false)
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 64, Interval: 5 * time.Millisecond, Count: 100}).Run()
	k.RunUntil(time.Second)
	stats := walkOIDs(tree, mib.RMONRoot.Append(1))
	if len(stats) != 19 {
		t.Fatalf("etherStats columns = %d, want 19", len(stats))
	}
	pkts, ok := tree.Get(EtherStatsOID(5))
	if !ok || pkts.Uint != 100 {
		t.Fatalf("etherStatsPkts = %+v, %v", pkts, ok)
	}
	events := walkOIDs(tree, mib.RMONRoot.Append(9))
	if len(events) != 4 {
		t.Fatalf("event columns = %d, want 4", len(events))
	}
}

func TestDeadProbeFreezes(t *testing.T) {
	k, _, _, probe, a, b := fixture(t, netsim.Ethernet10())
	netsim.NewSink(b, 9)
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: 10 * time.Millisecond, Count: 100}).Run()
	k.At(500*time.Millisecond, func() { probe.Node.SetUp(false) })
	k.Run()
	if probe.Stats.Pkts >= 100 {
		t.Fatalf("dead probe kept counting: %d", probe.Stats.Pkts)
	}
	if probe.Stats.Pkts < 40 {
		t.Fatalf("probe missed frames while alive: %d", probe.Stats.Pkts)
	}
}
