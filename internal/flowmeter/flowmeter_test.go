package flowmeter

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// fixture: a, b, c on one segment with a meter tapping it.
func fixture(t *testing.T) (*sim.Kernel, *netsim.Network, *Meter) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 91)
	for _, n := range []netsim.Addr{"a", "b", "c"} {
		nw.NewHost(n)
	}
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	for _, n := range nw.Nodes() {
		seg.Attach(n)
	}
	m := New(k).Attach(seg)
	return k, nw, m
}

func runTraffic(k *sim.Kernel, nw *netsim.Network) {
	netsim.NewSink(nw.Node("b"), 9)
	netsim.NewSink(nw.Node("c"), 9)
	// a->b:9 30 msgs, a->c:9 10 msgs, b->c:9 5 msgs.
	(&netsim.CBRSource{Src: nw.Node("a"), Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 30}).Run()
	(&netsim.CBRSource{Src: nw.Node("a"), Dst: "c", DstPort: 9, Size: 200, Interval: time.Millisecond, Count: 10}).Run()
	(&netsim.CBRSource{Src: nw.Node("b"), Dst: "c", DstPort: 9, Size: 50, Interval: time.Millisecond, Count: 5}).Run()
}

// A meter needs no setup: New(k) meters every flow it sees.
func TestDefaultRuleMetersByFlow(t *testing.T) {
	k, nw, m := fixture(t)
	runTraffic(k, nw)
	k.Run()
	flows := m.Flows()
	if len(flows) != 3 {
		t.Fatalf("flows = %d: %+v", len(flows), flows)
	}
	// Sorted: a->b, a->c, b->c.
	if flows[0].Key != (Key{Src: "a", Dst: "b"}) || flows[0].Packets != 30 {
		t.Fatalf("flow[0] = %+v", flows[0])
	}
	// a->b wire octets: 30 x (100+28+38).
	if flows[0].Octets != 30*166 {
		t.Fatalf("octets = %d", flows[0].Octets)
	}
	if flows[1].Key != (Key{Src: "a", Dst: "c"}) || flows[1].Packets != 10 {
		t.Fatalf("flow[1] = %+v", flows[1])
	}
	if flows[2].Key != (Key{Src: "b", Dst: "c"}) || flows[2].Packets != 5 {
		t.Fatalf("flow[2] = %+v", flows[2])
	}
}

// The meter's one granularity is the host pair, and it ignores ports: two
// a->b flows that differ only in ports fold into one row, packets and wire
// octets summed.
func TestHostPairGranularityAndIgnore(t *testing.T) {
	k, nw, m := fixture(t)
	netsim.NewSink(nw.Node("b"), 9)
	netsim.NewSink(nw.Node("b"), 7)
	(&netsim.CBRSource{Src: nw.Node("a"), Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 15}).Run()
	(&netsim.CBRSource{Src: nw.Node("a"), Dst: "b", DstPort: 7, Size: 100, Interval: time.Millisecond, Count: 15}).Run()
	k.Run()
	flows := m.Flows()
	if len(flows) != 1 || flows[0].Key != (Key{Src: "a", Dst: "b"}) || flows[0].Packets != 30 {
		t.Fatalf("flows = %+v", flows)
	}
	// 30 x (100+28+38), both port pairs summed.
	if flows[0].Octets != 30*166 {
		t.Fatalf("octets = %d", flows[0].Octets)
	}
}

func TestReaderRates(t *testing.T) {
	k, nw, m := fixture(t)
	netsim.NewSink(nw.Node("b"), 9)
	// 1 KiB every 10 ms from a to b for 10 s: ~873.6 kb/s on the wire.
	(&netsim.CBRSource{Src: nw.Node("a"), Dst: "b", DstPort: 9, Size: 1024, Interval: 10 * time.Millisecond, Count: 1000}).Run()
	reader := m.NewReader()
	k.RunUntil(10 * time.Second)
	rates := reader.Rates()
	if len(rates) != 1 || rates[0].Key != (Key{Src: "a", Dst: "b"}) {
		t.Fatalf("rates = %+v", rates)
	}
	wire := float64(1024+netsim.HeaderOverhead+38) * 8 / 0.01
	if rel := rates[0].BitsPS/wire - 1; rel < -0.02 || rel > 0.02 {
		t.Fatalf("rate %.0f vs wire %.0f", rates[0].BitsPS, wire)
	}
	// Second interval with no traffic: quiet flows produce no rate rows.
	k.RunUntil(11 * time.Second)
	_ = reader.Rates() // advance past residual
	k.RunUntil(12 * time.Second)
	if got := reader.Rates(); len(got) != 0 {
		t.Fatalf("idle rates = %+v", got)
	}
}

func TestCorruptedFramesNotMetered(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 92)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	cfg := netsim.Ethernet10()
	cfg.LossProb = 1.0
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(a)
	seg.Attach(b)
	m := New(k).Attach(seg)
	netsim.NewSink(b, 9)
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 10}).Run()
	k.Run()
	if len(m.Flows()) != 0 {
		t.Fatal("corrupted frames metered")
	}
}
