package rmon

import (
	"testing"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// hostsFixture: a, b, c exchange known traffic volumes on one LAN.
func hostsFixture(t *testing.T) (*sim.Kernel, *Probe) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 51)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	c := nw.NewHost("c")
	probeHost := nw.NewHost("probe")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	for _, n := range []*netsim.Node{a, b, c, probeHost} {
		seg.Attach(n)
	}
	probe := NewProbe(probeHost, seg)
	netsim.NewSink(b, 9)
	netsim.NewSink(c, 9)
	// a->b: 30 frames of 100 B; a->c: 10 frames of 200 B; b->c: 5 of 50 B.
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 30}).Run()
	(&netsim.CBRSource{Src: a, Dst: "c", DstPort: 9, Size: 200, Interval: time.Millisecond, Count: 10}).Run()
	(&netsim.CBRSource{Src: b, Dst: "c", DstPort: 9, Size: 50, Interval: time.Millisecond, Count: 5}).Run()
	return k, probe
}

func TestHostGroupCounts(t *testing.T) {
	k, probe := hostsFixture(t)
	hg := probe.EnableHosts()
	k.Run()
	a, ok := hg.hosts["a"]
	if !ok || a.OutPkts != 40 || a.InPkts != 0 {
		t.Fatalf("host a = %+v, %v", a, ok)
	}
	b := hg.hosts["b"]
	if b.InPkts != 30 || b.OutPkts != 5 {
		t.Fatalf("host b = %+v", b)
	}
	c := hg.hosts["c"]
	if c.InPkts != 15 {
		t.Fatalf("host c = %+v", c)
	}
	if len(hg.Hosts()) != 3 {
		t.Fatalf("hosts discovered: %d", len(hg.Hosts()))
	}
}

func TestTopTalkers(t *testing.T) {
	k, probe := hostsFixture(t)
	hg := probe.EnableHosts()
	k.Run()
	top := hg.TopTalkers(2)
	if len(top) != 2 || top[0].Addr != "a" {
		t.Fatalf("top talkers: %+v", top)
	}
	// a sends 30x(100+28+38) + 10x(200+28+38) = 4980 + 2660 = 7640 octets.
	if top[0].OutOctets != 7640 {
		t.Fatalf("a out octets = %d, want 7640", top[0].OutOctets)
	}
}

func TestMatrixGroupConversations(t *testing.T) {
	k, probe := hostsFixture(t)
	mg := probe.EnableMatrix()
	k.Run()
	ab, ok := mg.convs[[2]netsim.Addr{"a", "b"}]
	if !ok || ab.Pkts != 30 {
		t.Fatalf("a->b = %+v, %v", ab, ok)
	}
	if _, ok := mg.convs[[2]netsim.Addr{"b", "a"}]; ok {
		t.Fatal("phantom reverse conversation")
	}
	convs := mg.Conversations()
	if len(convs) != 3 {
		t.Fatalf("conversations: %+v", convs)
	}
	// Sorted by (src, dst): a->b, a->c, b->c.
	if convs[0].Dst != "b" || convs[1].Dst != "c" || convs[2].Src != "b" {
		t.Fatalf("order: %+v", convs)
	}
}

func TestHostAndMatrixMIBExposure(t *testing.T) {
	k, probe := hostsFixture(t)
	probe.EnableHosts()
	probe.EnableMatrix()
	tree := mib.NewTree()
	probe.Register(tree)
	k.Run()
	hosts := walkOIDs(tree, mib.RMONRoot.Append(4))
	if len(hosts) != 3*6 {
		t.Fatalf("hostTable entries = %d, want 18", len(hosts))
	}
	matrix := walkOIDs(tree, mib.RMONRoot.Append(6))
	if len(matrix) != 3*3 {
		t.Fatalf("matrixTable entries = %d, want 9", len(matrix))
	}
	// Walking must be in strict OID order (agent invariant).
	for i := 1; i < len(matrix); i++ {
		if matrix[i-1].Cmp(matrix[i]) >= 0 {
			t.Fatalf("matrix walk out of order at %d", i)
		}
	}
}

func TestGroupsDisabledByDefault(t *testing.T) {
	k, probe := hostsFixture(t)
	tree := mib.NewTree()
	probe.Register(tree)
	k.Run()
	if got := walkOIDs(tree, mib.RMONRoot.Append(4)); len(got) != 0 {
		t.Fatalf("host group active without EnableHosts: %d entries", len(got))
	}
}

// TestRoutedFrameCountsAgainstRouter: a sends to b across router r, and the
// probe sits on b's segment. Every frame it sees there was put on the wire
// by r, so the host and matrix tables must charge r — the off-segment
// origin a is no station of this segment and must never appear.
func TestRoutedFrameCountsAgainstRouter(t *testing.T) {
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 53)
	a := nw.NewHost("a")
	r := nw.NewRouter("r", 0)
	b := nw.NewHost("b")
	probeHost := nw.NewHost("probe")
	far := nw.NewSegment("far", netsim.Ethernet10())
	far.Attach(a)
	far.Attach(r)
	near := nw.NewSegment("near", netsim.Ethernet10())
	for _, n := range []*netsim.Node{r, b, probeHost} {
		near.Attach(n)
	}
	a.SetDefaultRoute("r")
	probe := NewProbe(probeHost, near)
	hg := probe.EnableHosts()
	mg := probe.EnableMatrix()
	netsim.NewSink(b, 9)
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100, Interval: time.Millisecond, Count: 20}).Run()
	k.Run()

	if _, ok := hg.hosts["a"]; ok {
		t.Fatalf("off-segment origin a is a station: %+v", hg.Hosts())
	}
	rs, bs := hg.hosts["r"], hg.hosts["b"]
	if rs == nil || rs.OutPkts != 20 || bs == nil || bs.InPkts != 20 {
		t.Fatalf("hosts = %+v", hg.Hosts())
	}
	if convs := mg.Conversations(); len(convs) != 1 || convs[0].Src != "r" || convs[0].Dst != "b" || convs[0].Pkts != 20 {
		t.Fatalf("conversations = %+v", convs)
	}
}
