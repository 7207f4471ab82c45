package mib

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/asn1ber"
	"repro/internal/netsim"
	"repro/internal/rstream"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// registerRows binds a table whose rows are their own index arcs; the cell
// in column arc of a row is cell(arc, row).
func registerRows(tr *Tree, prefix OID, arcs []uint32, rows func() []OID, cell func(arc uint32, row OID) Value) {
	var cols []Column[OID]
	for _, arc := range arcs {
		cols = append(cols, Column[OID]{arc, func(row OID) Value { return cell(arc, row) }})
	}
	RegisterTable(tr, prefix, cols, rows, func(dst OID, row OID) OID { return append(dst, row...) })
}

func TestParseOID(t *testing.T) {
	o, err := ParseOID(".1.3.6.1.2.1.1.1.0")
	if err != nil {
		t.Fatal(err)
	}
	if o.String() != ".1.3.6.1.2.1.1.1.0" {
		t.Fatalf("String = %q", o.String())
	}
	if _, err := ParseOID("1.3.x"); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := ParseOID(""); err == nil {
		t.Fatal("accepted empty")
	}
}

func TestOIDCmp(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.3.6", "1.3.6", 0},
		{"1.3.6", "1.3.7", -1},
		{"1.3.7", "1.3.6", 1},
		{"1.3", "1.3.1", -1}, // prefix sorts first
		{"1.3.6.1", "1.3.6", 1},
	}
	for _, c := range cases {
		if got := MustOID(c.a).Cmp(MustOID(c.b)); got != c.want {
			t.Fatalf("Cmp(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPropertyOIDOrderingTotal(t *testing.T) {
	// Cmp is antisymmetric and transitive over random OIDs; sorting any
	// slice with it yields a non-decreasing sequence with Next semantics.
	f := func(raw [][]uint32) bool {
		oids := make([]OID, len(raw))
		for i, r := range raw {
			oids[i] = OID(r)
		}
		sort.Slice(oids, func(i, j int) bool { return oids[i].Cmp(oids[j]) < 0 })
		for i := 1; i < len(oids); i++ {
			if oids[i-1].Cmp(oids[i]) > 0 {
				return false
			}
			if oids[i].Cmp(oids[i-1]) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOIDAppendNoAliasing(t *testing.T) {
	base := MustOID("1.3.6")
	a := base.Append(1)
	b := base.Append(2)
	if a.Cmp(MustOID("1.3.6.1")) != 0 || b.Cmp(MustOID("1.3.6.2")) != 0 {
		t.Fatalf("append aliasing: %s %s", a, b)
	}
}

func TestTreeScalarGetSet(t *testing.T) {
	tr := NewTree()
	val := int64(7)
	tr.RegisterWritableScalar(MustOID("1.2.3.0"),
		func() Value { return Int(val) },
		func(v Value) error { val = v.Int; return nil })
	got, ok := tr.Get(MustOID("1.2.3.0"))
	if !ok || got.Int != 7 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if err := tr.Set(MustOID("1.2.3.0"), Int(9)); err != nil {
		t.Fatal(err)
	}
	if val != 9 {
		t.Fatalf("set did not apply: %d", val)
	}
	if err := tr.Set(MustOID("9.9.9.0"), Int(1)); err == nil {
		t.Fatal("set of unknown OID succeeded")
	}
	tr.RegisterConst(MustOID("1.2.4.0"), Int(1))
	if err := tr.Set(MustOID("1.2.4.0"), Int(2)); err == nil {
		t.Fatal("set of read-only OID succeeded")
	}
}

func TestTreeNextTraversal(t *testing.T) {
	tr := NewTree()
	tr.RegisterConst(MustOID("1.3.6.1.2.1.1.1.0"), Str("descr"))
	tr.RegisterConst(MustOID("1.3.6.1.2.1.1.3.0"), Ticks(100))
	registerRows(tr, MustOID("1.3.6.1.2.1.2.2.1"), []uint32{1, 10},
		func() []OID { return []OID{{1}, {2}} },
		func(arc uint32, row OID) Value {
			if arc == 10 {
				return Counter(500)
			}
			return Int(int64(row[0]))
		})
	tr.RegisterConst(MustOID("1.3.6.1.2.1.7.1.0"), Counter(3))

	var walk []string
	cur := MustOID("1.3.6.1.2.1")
	for {
		oid, _, ok := tr.Next(cur)
		if !ok {
			break
		}
		walk = append(walk, oid.String())
		cur = oid
	}
	want := []string{
		".1.3.6.1.2.1.1.1.0",
		".1.3.6.1.2.1.1.3.0",
		".1.3.6.1.2.1.2.2.1.1.1",
		".1.3.6.1.2.1.2.2.1.1.2",
		".1.3.6.1.2.1.2.2.1.10.1",
		".1.3.6.1.2.1.2.2.1.10.2",
		".1.3.6.1.2.1.7.1.0",
	}
	if len(walk) != len(want) {
		t.Fatalf("walk = %v", walk)
	}
	for i := range want {
		if walk[i] != want[i] {
			t.Fatalf("walk[%d] = %s, want %s", i, walk[i], want[i])
		}
	}
}

func TestTreeNextFromMiddleOfSubtree(t *testing.T) {
	tr := NewTree()
	registerRows(tr, MustOID("1.2"), []uint32{1},
		func() []OID { return []OID{{1}, {2}} },
		func(arc uint32, row OID) Value { return Int(int64(row[0])) })
	oid, v, ok := tr.Next(MustOID("1.2.1.1"))
	if !ok || oid.String() != ".1.2.1.2" || v.Int != 2 {
		t.Fatalf("Next = %v %v %v", oid, v, ok)
	}
	if _, _, ok := tr.Next(MustOID("1.2.1.2")); ok {
		t.Fatal("Next past end succeeded")
	}
}

// entry is one (OID, value) binding, the unit of a walk.
type entry struct {
	OID   OID
	Value Value
}

// walk returns every binding under prefix in traversal order: GetNext from
// prefix until the answer leaves it, as an SNMP walk does.
func walk(tr *Tree, prefix OID) []entry {
	var out []entry
	for oid := prefix; ; {
		next, v, ok := tr.Next(oid)
		if !ok || !next.HasPrefix(prefix) {
			return out
		}
		out = append(out, entry{next, v})
		oid = next
	}
}

func TestTreeWalkPrefix(t *testing.T) {
	tr := NewTree()
	tr.RegisterConst(MustOID("1.1.0"), Int(1))
	tr.RegisterConst(MustOID("1.2.0"), Int(2))
	tr.RegisterConst(MustOID("2.1.0"), Int(3))
	entries := walk(tr, MustOID("1"))
	if len(entries) != 2 {
		t.Fatalf("walk(1) = %d entries", len(entries))
	}
	all := walk(tr, nil)
	if len(all) != 3 {
		t.Fatalf("All = %d entries", len(all))
	}
}

func TestValueEncodeDecodeRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), Int(-42), Str("hello"), OIDVal(MustOID("1.3.6.1")),
		IP([]byte{10, 0, 0, 1}), Counter(1 << 31), Gauge(12345),
		Ticks(4242), Counter64Val(1 << 40), NoSuchObject(), EndOfMIB(),
	}
	for _, v := range vals {
		b := v.Encode(nil)
		got, err := DecodeValue(asn1ber.NewReader(b))
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if got.Kind != v.Kind || got.Int != v.Int || got.Uint != v.Uint ||
			string(got.Str) != string(v.Str) || got.OID.Cmp(v.OID) != 0 {
			t.Fatalf("round trip %+v -> %+v", v, got)
		}
	}
}

func TestCounterWraps(t *testing.T) {
	v := Counter(1<<32 + 5)
	if v.Uint != 5 {
		t.Fatalf("Counter32 wrap: %d", v.Uint)
	}
	g := Gauge(1<<32 + 5)
	if g.Uint != 0xffffffff {
		t.Fatalf("Gauge32 clamp: %d", g.Uint)
	}
}

func TestPseudoIPStable(t *testing.T) {
	a := PseudoIP("rtds-server-1")
	b := PseudoIP("rtds-server-1")
	c := PseudoIP("rtds-server-2")
	if string(a) != string(b) {
		t.Fatal("PseudoIP not stable")
	}
	if string(a) == string(c) {
		t.Fatal("PseudoIP collision between distinct names")
	}
	if a[0] != 10 || len(a) != 4 {
		t.Fatalf("PseudoIP shape: %v", a)
	}
}

// nodeViewFixture builds a two-host LAN and a NodeView over the first host.
func nodeViewFixture(t *testing.T) (*sim.Kernel, *netsim.Node, *netsim.Node, *NodeView) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 1)
	a := nw.NewHost("agent-host")
	b := nw.NewHost("peer")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(a)
	seg.Attach(b)
	return k, a, b, NewNodeView(a)
}

func TestNodeViewSystemGroup(t *testing.T) {
	k, a, _, v := nodeViewFixture(t)
	a.LocalClock = &vclock.Clock{}
	k.RunUntil(2500 * time.Millisecond)
	up, ok := v.Tree.Get(SysUpTime)
	if !ok || up.Kind != KindTimeTicks {
		t.Fatalf("sysUpTime = %+v, %v", up, ok)
	}
	if up.Uint != 250 {
		t.Fatalf("sysUpTime = %d ticks, want 250", up.Uint)
	}
	name, ok := v.Tree.Get(MustOID("1.3.6.1.2.1.1.5.0"))
	if !ok || string(name.Str) != "agent-host" {
		t.Fatalf("sysName = %+v", name)
	}
}

func TestNodeViewInterfacesLiveCounters(t *testing.T) {
	k, a, b, v := nodeViewFixture(t)
	netsim.NewSink(b, 9)
	tx := a.OpenUDP(0)
	k.After(0, func() { tx.SendSize("peer", 9, 100) })
	k.Run()
	out, ok := v.Tree.Get(IfEntry.Append(16, 1)) // ifOutOctets.1
	if !ok || out.Uint != 128 {                  // 100 + 28 header
		t.Fatalf("ifOutOctets = %+v, %v", out, ok)
	}
	n, _ := v.Tree.Get(IfNumber)
	if n.Int != 1 {
		t.Fatalf("ifNumber = %d", n.Int)
	}
	status, _ := v.Tree.Get(IfEntry.Append(8, 1))
	if status.Int != 1 {
		t.Fatalf("ifOperStatus = %d", status.Int)
	}
	a.Ifaces()[0].SetUp(false)
	status, _ = v.Tree.Get(IfEntry.Append(8, 1))
	if status.Int != 2 {
		t.Fatalf("ifOperStatus after down = %d", status.Int)
	}
}

// TestGetDoesNotAllocate: the two objects a cots poll reads, a scalar and
// a table cell, resolve without allocating.
func TestGetDoesNotAllocate(t *testing.T) {
	_, _, _, v := nodeViewFixture(t)
	for _, oid := range []OID{SysUpTime, IfEntry.Append(10, 1)} {
		if _, ok := v.Tree.Get(oid); !ok {
			t.Fatalf("%s missing from the node view", oid)
		}
		if n := testing.AllocsPerRun(200, func() { v.Tree.Get(oid) }); n != 0 {
			t.Errorf("Get(%s) allocates %v times, want 0", oid, n)
		}
	}
}

// TestSortAllocatesNothing: the sort a Get makes after a registration
// allocates nothing, on a node view with an RMON-sized set of tables added
// and its registrations handed to the sort in reverse order each time.
func TestSortAllocatesNothing(t *testing.T) {
	_, _, _, v := nodeViewFixture(t)
	tr := v.Tree
	rows := []OID{{1}}
	for i := uint32(1); i <= 5; i++ {
		registerRows(tr, MustOID("1.3.6.1.2.1.16").Append(i, 1), []uint32{1},
			func() []OID { return rows }, func(uint32, OID) Value { return Int(int64(i)) })
	}
	cell := MustOID("1.3.6.1.2.1.16.3.1.1.1")
	if n := testing.AllocsPerRun(100, func() {
		slices.Reverse(tr.regs)
		tr.sorted = false
		tr.Get(cell)
	}); n != 0 {
		t.Errorf("a Get that sorts %d registrations allocates %v times, want 0", len(tr.regs), n)
	}
	if v, ok := tr.Get(cell); !ok || v.Int != 3 {
		t.Fatalf("Get(%s) = %+v, %v after the sorts, want 3", cell, v, ok)
	}
}

func TestNodeViewUDPCounters(t *testing.T) {
	k, a, b, v := nodeViewFixture(t)
	netsim.NewSink(b, 9)
	tx := a.OpenUDP(0)
	k.After(0, func() {
		tx.SendSize("peer", 9, 10)
		tx.SendSize("peer", 9, 10)
	})
	k.Run()
	out, _ := v.Tree.Get(UDPGroup.Append(4, 0))
	if out.Uint != 2 {
		t.Fatalf("udpOutDatagrams = %d, want 2", out.Uint)
	}
}

func TestTCPConnTableExposesFiveColumns(t *testing.T) {
	k, a, b, v := nodeViewFixture(t)
	l := rstream.Listen(a, 5000)
	v.AddListener(l)
	a.Spawn("acceptor", func(p *sim.Proc) {
		l.Accept(p, 5*time.Second)
	})
	b.Spawn("dialer", func(p *sim.Proc) {
		rstream.Dial(p, b, "agent-host", 5000, 5*time.Second)
	})
	k.RunUntil(10 * time.Second)
	rows := walk(v.Tree, TCPConn)
	if len(rows) != rstream.NumMIBVars {
		t.Fatalf("tcpConnTable rows = %d, want %d (one per MIB column)", len(rows), rstream.NumMIBVars)
	}
	// Column 1 is tcpConnState; established is 5.
	state := rows[0]
	if !state.OID.HasPrefix(TCPConn.Append(1)) || state.Value.Int != 5 {
		t.Fatalf("tcpConnState row = %+v", state)
	}
}
