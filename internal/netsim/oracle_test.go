package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// The oracles: forwarding as every packet at every hop used to do it — walk
// the route maps, then search the segment for the station the next hop
// names — and the traffic endpoints as the procs they used to be. What they
// answer is the contract the forwarding entries and the event-driven
// endpoints keep.

// oracleRoute is the map walk: explicit host route, then adjacency, then
// the default; a next hop that is not a neighbor is no route.
func oracleRoute(n *Node, dst Addr) (*Iface, Addr) {
	if nh, ok := n.routes[dst]; ok {
		if ifc, ok := n.neighbors[nh]; ok {
			return ifc, nh
		}
		return nil, ""
	}
	if ifc, ok := n.neighbors[dst]; ok {
		return ifc, dst
	}
	if n.defRoute != "" {
		if ifc, ok := n.neighbors[n.defRoute]; ok {
			return ifc, n.defRoute
		}
	}
	return nil, ""
}

// oracleStation is the scan a shared segment made for every unicast frame.
func oracleStation(s *SharedSegment, nh Addr) *Iface {
	for _, ifc := range s.ifaces {
		if ifc.node.Name == nh {
			return ifc
		}
	}
	return nil
}

// hopRec is one observable step of a datagram: a frame on a shared wire, a
// delivery to a socket, or a drop, each with the packet's NextHop as it was.
type hopRec struct {
	What    string // "wire", "deliver" or the drop reason
	Where   string // segment or node name; empty for a drop
	NextHop Addr
}

// fwdOracle predicts, from oracleRoute and oracleStation alone, what one
// datagram at a time does to every counter in a topology whose state holds
// still while the datagram is in flight.
type fwdOracle struct {
	nodes     map[*Node]*NodeCounters
	ifaces    map[*Iface]*IfaceCounters
	segs      map[*SharedSegment]*SegmentStats
	sent      map[*Network]uint64
	delivered map[*Network]uint64
	trace     []hopRec
	crossed   int // datagrams delivered in the other network
}

func newFwdOracle() *fwdOracle {
	return &fwdOracle{
		nodes:     map[*Node]*NodeCounters{},
		ifaces:    map[*Iface]*IfaceCounters{},
		segs:      map[*SharedSegment]*SegmentStats{},
		sent:      map[*Network]uint64{},
		delivered: map[*Network]uint64{},
	}
}

// shadow returns the oracle's counters for k, zero until first touched.
func shadow[K comparable, V any](m map[K]*V, k K) *V {
	if m[k] == nil {
		m[k] = new(V)
	}
	return m[k]
}

func (o *fwdOracle) node(n *Node) *NodeCounters         { return shadow(o.nodes, n) }
func (o *fwdOracle) iface(i *Iface) *IfaceCounters      { return shadow(o.ifaces, i) }
func (o *fwdOracle) seg(s *SharedSegment) *SegmentStats { return shadow(o.segs, s) }

func (o *fwdOracle) drop(r DropReason, nh Addr) {
	o.trace = append(o.trace, hopRec{What: r.String(), NextHop: nh})
}

// send follows one datagram from a socket on src to its fate.
func (o *fwdOracle) send(src *Node, dst Addr, dport Port, size int) {
	if !src.up {
		return
	}
	o.sent[src.net]++
	o.node(src).UDPOut++
	octets := uint64(size + HeaderOverhead)
	var nextHop Addr
	for n, ttl := src, 32; ; {
		out, nh := oracleRoute(n, dst)
		if out == nil {
			o.node(n).NoRoute++
			o.drop(DropNoRoute, nextHop)
			return
		}
		nextHop = nh
		if !out.up || !n.up {
			o.iface(out).OutDiscards++
			o.drop(DropIfaceDown, nextHop)
			return
		}
		var rcv *Iface
		switch m := out.medium.(type) {
		case *SharedSegment:
			wire := uint64(m.cfg.wireBits(&Packet{Size: size}) / 8)
			o.seg(m).Frames++
			o.seg(m).Octets += wire
			o.trace = append(o.trace, hopRec{"wire", m.name, nextHop})
			o.iface(out).OutPkts++
			o.iface(out).OutOctets += octets
			if rcv = oracleStation(m, nextHop); rcv == nil {
				o.seg(m).NoStation++
				o.drop(DropNoStation, nextHop)
				return
			}
		case *Link:
			o.iface(out).OutPkts++
			o.iface(out).OutOctets += octets
			rcv = m.ends[1-m.dir(out)].ifc
		}
		n = rcv.node
		if !n.up {
			o.node(n).DownDrops++
			o.drop(DropHostDown, nextHop)
			return
		}
		if !rcv.up {
			o.iface(rcv).InDiscards++
			o.drop(DropIfaceDown, nextHop)
			return
		}
		o.iface(rcv).InPkts++
		o.iface(rcv).InOctets += octets
		if dst == n.Name {
			if _, ok := n.sockets[dport]; !ok {
				o.node(n).NoPort++
				o.drop(DropNoPort, nextHop)
				return
			}
			o.delivered[n.net]++
			if n.net != src.net {
				o.crossed++
			}
			o.node(n).UDPIn++
			o.trace = append(o.trace, hopRec{"deliver", string(n.Name), nextHop})
			return
		}
		if n.Role == RoleHost {
			o.node(n).NoRoute++
			o.drop(DropNoRoute, nextHop)
			return
		}
		if ttl--; ttl <= 0 {
			o.node(n).TTLExpired++
			o.drop(DropTTLExpired, nextHop)
			return
		}
	}
}

// fwdWorld is one random topology of the forwarding property: two networks
// on one kernel joined by ConnectShards links, the oracle beside them, and
// the trace the real networks leave.
type fwdWorld struct {
	rng    *rand.Rand
	k      *sim.Kernel
	nets   [2]*Network
	nodes  [2][]*Node // per network, creation order
	segs   [2][]*SharedSegment
	tx     map[*Node]*UDPSock
	names  []Addr   // every destination a datagram may name
	script []func() // moves queued for the coming steps
	oracle *fwdOracle
	trace  []hopRec
	nextID int
}

// fwdPair is a datagram to send: from a node's socket to a name.
type fwdPair struct {
	src *Node
	dst Addr
}

const sinkPort = 9

func newFwdWorld(seed int64) *fwdWorld {
	w := &fwdWorld{
		rng:    rand.New(rand.NewSource(seed)),
		k:      sim.NewKernel(),
		tx:     map[*Node]*UDPSock{},
		names:  []Addr{"ghost"},
		oracle: newFwdOracle(),
	}
	for i := range w.nets {
		nw := New(w.k, seed+int64(i))
		nw.OnDrop = func(r DropReason, pkt *Packet) {
			w.trace = append(w.trace, hopRec{What: r.String(), NextHop: pkt.NextHop})
		}
		w.nets[i] = nw
	}
	cfgs := []MediumConfig{Ethernet10(), Ethernet100(), FDDI()}
	// Network 0 is the larger one; network 1 a stub behind a cross link.
	for i, size := range [2]struct{ segs, routers, hosts int }{
		{2 + w.rng.Intn(3), 1 + w.rng.Intn(3), 3 + w.rng.Intn(4)},
		{1 + w.rng.Intn(2), 1, 2 + w.rng.Intn(2)},
	} {
		for s := 0; s < size.segs; s++ {
			seg := w.nets[i].NewSegment(fmt.Sprintf("n%d-lan%d", i, s), cfgs[w.rng.Intn(len(cfgs))])
			seg.Tap(func(f Frame) {
				w.trace = append(w.trace, hopRec{"wire", seg.name, f.Pkt.NextHop})
			})
			w.segs[i] = append(w.segs[i], seg)
		}
		var routers []*Node
		for r := 0; r < size.routers; r++ {
			n := w.nets[i].NewRouter(w.name(i, "r"), time.Duration(w.rng.Intn(2))*10*time.Microsecond)
			if w.rng.Intn(4) == 0 {
				n.Role = RoleSwitch
			}
			w.adopt(i, n)
			for _, s := range w.rng.Perm(size.segs)[:min(2, size.segs)] {
				w.segs[i][s].Attach(n)
			}
			routers = append(routers, n)
		}
		for h := 0; h < size.hosts; h++ {
			n := w.nets[i].NewHost(w.name(i, "h"))
			w.adopt(i, n)
			homes := 1 + w.rng.Intn(5)/4 // one in five is multi-homed
			for _, s := range w.rng.Perm(size.segs)[:min(homes, size.segs)] {
				w.segs[i][s].Attach(n)
			}
		}
		if len(routers) > 1 {
			w.nets[i].NewLink("trunk", routers[0], routers[1], ATMLink())
		}
		// A baseline in which a good share of datagrams arrive: most nodes
		// default to a router (a router, at times, to itself: no route).
		for _, n := range w.nodes[i] {
			if w.rng.Intn(5) > 0 {
				n.SetDefaultRoute(routers[w.rng.Intn(len(routers))].Name)
			}
		}
	}
	// The stub's router and one of the larger network's know the way across.
	near, far := w.pick(0, RoleRouter), w.pick(1, RoleRouter)
	ConnectShards("cross", near, far, ATMLink())
	far.SetDefaultRoute(near.Name)
	for _, n := range w.nodes[1] {
		near.AddRoute(n.Name, far.Name)
	}
	for range 6 {
		p := w.routeTarget()
		p.src.AddRoute(p.dst, w.anyName())
	}
	return w
}

func (w *fwdWorld) name(net int, kind string) Addr {
	w.nextID++
	return Addr(fmt.Sprintf("n%d-%s%d", net, kind, w.nextID))
}

// adopt gives a node its sockets — most listen on sinkPort, so some
// datagrams find no port — and makes it a source and a destination.
func (w *fwdWorld) adopt(net int, n *Node) {
	w.nodes[net] = append(w.nodes[net], n)
	w.names = append(w.names, n.Name)
	w.tx[n] = n.OpenUDP(0)
	if w.rng.Intn(6) > 0 {
		n.OpenUDP(sinkPort).consume = func(pkt *Packet) {
			w.trace = append(w.trace, hopRec{"deliver", string(n.Name), pkt.NextHop})
		}
	}
}

// pick returns a random node of the network, of the role if there is one.
func (w *fwdWorld) pick(net int, role Role) *Node {
	var of []*Node
	for _, n := range w.nodes[net] {
		if n.Role == role {
			of = append(of, n)
		}
	}
	if len(of) == 0 {
		of = w.nodes[net]
	}
	return of[w.rng.Intn(len(of))]
}

func (w *fwdWorld) anyNode() *Node {
	net := w.rng.Intn(3) / 2 // two in three from the larger network
	return w.nodes[net][w.rng.Intn(len(w.nodes[net]))]
}

func (w *fwdWorld) anyName() Addr { return w.names[w.rng.Intn(len(w.names))] }

// send puts one datagram on the networks, after the oracle has followed it.
func (w *fwdWorld) send(src *Node, dst Addr) {
	size := 40 + w.rng.Intn(1200)
	w.oracle.send(src, dst, sinkPort, size)
	w.tx[src].SendSize(dst, sinkPort, size)
}

// around queues a change for the coming steps with a datagram from each
// source to its destination before it and again after it: the first
// resolves the forwarding entries the change makes stale, the second uses
// them. One move a step, so that nothing changes under a datagram in flight.
func (w *fwdWorld) around(change func(), pairs ...fwdPair) {
	for range 2 {
		for _, p := range pairs {
			w.script = append(w.script, func() { w.send(p.src, p.dst) })
		}
		if change != nil {
			w.script = append(w.script, change)
			change = nil
		}
	}
}

// routeTarget picks where a host route goes: at a random node, toward any
// name or — half the time — toward one of the node's neighbors, which
// overrides adjacency. Its next hop is any name, neighbor or not.
func (w *fwdWorld) routeTarget() fwdPair {
	n, dst := w.anyNode(), w.anyName()
	if nbs := w.sortedNeighbors(n); len(nbs) > 0 && w.rng.Intn(2) == 0 {
		dst = nbs[w.rng.Intn(len(nbs))]
	}
	return fwdPair{n, dst}
}

// step makes one move from inside a kernel event: the next one queued, or a
// random datagram, or a change to routes, adjacency or up/down with its
// datagrams before and after.
func (w *fwdWorld) step() {
	if len(w.script) > 0 {
		next := w.script[0]
		w.script = w.script[1:]
		next()
		return
	}
	switch p := w.rng.Intn(100); {
	case p < 40:
		w.send(w.anyNode(), w.anyName())
	case p < 52:
		p := w.routeTarget()
		w.around(func() { p.src.AddRoute(p.dst, w.anyName()) }, p)
	case p < 60:
		n := w.anyNode()
		w.around(func() { n.SetDefaultRoute(w.anyName()) }, fwdPair{n, w.anyName()})
	case p < 70:
		n := w.anyNode()
		n.SetUp(!n.up || w.rng.Intn(3) == 0) // mostly back up
	case p < 80:
		if n := w.anyNode(); len(n.ifaces) > 0 {
			ifc := n.ifaces[w.rng.Intn(len(n.ifaces))]
			ifc.SetUp(!ifc.up || w.rng.Intn(3) == 0)
		}
	case p < 87: // a host appears on a segment beside a station that has sent to its name
		net := w.rng.Intn(2)
		seg := w.segs[net][w.rng.Intn(len(w.segs[net]))]
		if len(seg.ifaces) == 0 {
			return
		}
		n := w.nets[net].NewHost(w.name(net, "late"))
		w.adopt(net, n)
		w.around(func() { seg.Attach(n) }, fwdPair{seg.ifaces[w.rng.Intn(len(seg.ifaces))].node, n.Name})
	case p < 93: // two nodes of one network get a link
		net := w.rng.Intn(2)
		a, b := w.pick(net, RoleRouter), w.pick(net, RoleHost)
		w.around(func() { w.nets[net].NewLink("late", a, b, ATMLink()) }, fwdPair{a, b.Name}, fwdPair{b, a.Name})
	default: // a second link between the networks
		a, b := w.nodes[0][w.rng.Intn(len(w.nodes[0]))], w.nodes[1][w.rng.Intn(len(w.nodes[1]))]
		w.around(func() { ConnectShards("late-cross", a, b, ATMLink()) }, fwdPair{a, b.Name}, fwdPair{b, a.Name})
	}
}

func (w *fwdWorld) sortedNeighbors(n *Node) []Addr {
	names := make([]Addr, 0, len(n.neighbors))
	for nb := range n.neighbors {
		names = append(names, nb)
	}
	slices.Sort(names)
	return names
}

// diff reports the first place the networks and the oracle disagree.
func (w *fwdWorld) diff() string {
	if !reflect.DeepEqual(w.trace, w.oracle.trace) {
		return fmt.Sprintf("trace\n got  %v\n want %v", w.trace, w.oracle.trace)
	}
	for i, nw := range w.nets {
		if nw.PacketsSent != w.oracle.sent[nw] || nw.PacketsDelivered != w.oracle.delivered[nw] {
			return fmt.Sprintf("network %d sent/delivered %d/%d, oracle %d/%d", i,
				nw.PacketsSent, nw.PacketsDelivered, w.oracle.sent[nw], w.oracle.delivered[nw])
		}
		for _, n := range nw.Nodes() {
			if want := *w.oracle.node(n); n.Counters != want {
				return fmt.Sprintf("node %s counters %+v, oracle %+v", n.Name, n.Counters, want)
			}
			for _, ifc := range n.ifaces {
				if want := *w.oracle.iface(ifc); ifc.Counters != want {
					return fmt.Sprintf("%s if%d (%s) counters %+v, oracle %+v",
						n.Name, ifc.Index, ifc.medium.Name(), ifc.Counters, want)
				}
			}
		}
		for _, seg := range w.segs[i] {
			if want := *w.oracle.seg(seg); seg.Stats() != want {
				return fmt.Sprintf("segment %s stats %+v, oracle %+v", seg.name, seg.Stats(), want)
			}
		}
	}
	return ""
}

// TestPropertyForwardingMatchesOracle drives seeded random topologies — a
// datagram or a change every 100 ms of virtual time, each made from inside a
// kernel event — and requires the indexed forwarding path to agree with the
// map walk and the station scan packet for packet: the same frames on the
// same wires with the same NextHop, the same fate, and every node,
// interface and segment counter equal. Removing any routing-generation
// bump, or the re-interning at a cross-network link, fails it.
func TestPropertyForwardingMatchesOracle(t *testing.T) {
	const topologies, rounds = 240, 60
	fates, crossed := map[string]int{}, 0
	for seed := int64(1); seed <= topologies; seed++ {
		w := newFwdWorld(seed)
		for round := 0; round < rounds; round++ {
			at := time.Duration(round+1) * 100 * time.Millisecond
			w.k.At(at, w.step)
			w.k.RunUntil(at + 50*time.Millisecond)
			if d := w.diff(); d != "" {
				w.k.Close()
				t.Fatalf("seed %d round %d: %s", seed, round, d)
			}
		}
		for _, h := range w.trace {
			fates[h.What]++
		}
		crossed += w.oracle.crossed
		w.k.Close()
	}
	// Every fate the forwarding path can hand a datagram must have been
	// compared, or the property was vacuous. (No frame ever finds its
	// station missing: a next hop is a neighbor on the egress medium.)
	for _, what := range []string{"wire", "deliver", DropNoRoute.String(), DropNoPort.String(),
		DropTTLExpired.String(), DropHostDown.String(), DropIfaceDown.String()} {
		if fates[what] < 20 {
			t.Errorf("only %d %q steps in %d topologies", fates[what], what, topologies)
		}
	}
	if crossed < 20 {
		t.Errorf("only %d datagrams delivered across a cross-network link", crossed)
	}
}

// TestDuplicateGoesToResolvedStation: a segment that duplicates every frame
// hands both copies to the station the forwarding entry resolved, and to no
// other.
func TestDuplicateGoesToResolvedStation(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := New(k, 1)
	cfg := Ethernet100()
	cfg.DupProb = 1
	seg := nw.NewSegment("lan", cfg)
	a, b, c := nw.NewHost("a"), nw.NewHost("b"), nw.NewHost("c")
	seg.Attach(a)
	seg.Attach(b)
	seg.Attach(c)
	sinkB, sinkC := NewSink(b, sinkPort), NewSink(c, sinkPort)
	a.OpenUDP(0).SendSize("c", sinkPort, 100)
	k.Run()
	if sinkC.Received != 2 || sinkB.Received != 0 || seg.Stats().Frames != 1 {
		t.Fatalf("c received %d, b %d, %d frames; want 2, 0, 1", sinkC.Received, sinkB.Received, seg.Stats().Frames)
	}
}

// oracleCBRRun is CBRSource.Run as a proc: send, sleep an interval, repeat.
func oracleCBRRun(c *CBRSource) {
	var rng *rand.Rand
	if c.Jitter > 0 {
		rng = c.Src.net.K.Rand(c.Seed)
	}
	sock := c.Src.OpenUDP(0)
	c.Src.Spawn("cbr", func(p *sim.Proc) {
		for c.Count == 0 || c.Sent < c.Count {
			sock.SendSize(c.Dst, c.DstPort, c.Size)
			c.Sent++
			d := c.Interval
			if rng != nil {
				d = time.Duration(float64(d) * (1 - c.Jitter + 2*c.Jitter*rng.Float64()))
			}
			p.Sleep(d)
		}
	})
}

// oracleOnOffRun is OnOffSource.Run as a proc.
func oracleOnOffRun(o *OnOffSource) {
	rng := o.Src.net.K.Rand(o.Seed)
	sock := o.Src.OpenUDP(0)
	gap := time.Duration(float64(o.Size+HeaderOverhead) * 8 / float64(o.PeakBps) * float64(time.Second))
	expo := func(mean time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
	o.Src.Spawn("onoff", func(p *sim.Proc) {
		for o.Until == 0 || p.Now() < o.Until {
			end := p.Now() + expo(o.MeanOn)
			for p.Now() < end {
				sock.SendSize(o.Dst, o.DstPort, o.Size)
				o.Sent++
				p.Sleep(gap)
			}
			p.Sleep(expo(o.MeanOff))
		}
	})
}

// oracleNewSink is NewSink with a consumer proc blocked in Recv.
func oracleNewSink(n *Node, port Port) *Sink {
	s := &Sink{Sock: n.OpenUDP(port)}
	n.Spawn("sink", func(p *sim.Proc) {
		for {
			pkt, ok := s.Sock.Recv(p, -1)
			if !ok {
				return
			}
			s.Received++
			s.Bytes += int64(pkt.Size)
			s.LastAt = p.Now()
		}
	})
	return s
}

// TestSourcesMatchProcOracle runs one seeded topology twice — the sources
// and sinks as events, then as the procs they replaced — and requires the
// same frames (packet ID, time, wire bytes) on both wires and the same
// totals. The events that differ are the ones the sinks no longer need: a
// start per sink and a wake-up per datagram delivered to one.
func TestSourcesMatchProcOracle(t *testing.T) {
	type frameRec struct {
		Seg  string
		ID   uint64
		At   time.Duration
		Wire int
	}
	type outcome struct {
		Frames          []frameRec
		Sent            []int
		Sinks           []Sink
		PacketsSent     uint64
		PacketsDeliverd uint64
	}
	run := func(cbr func(*CBRSource), onoff func(*OnOffSource), sink func(*Node, Port) *Sink) (outcome, int) {
		k := sim.NewKernel()
		defer k.Close()
		nw := New(k, 7)
		// a, b -- lan1 -- r -- lan2 -- c, d
		a, b, c, d := nw.NewHost("a"), nw.NewHost("b"), nw.NewHost("c"), nw.NewHost("d")
		r := nw.NewRouter("r", 10*time.Microsecond)
		lossy := Ethernet10()
		lossy.LossProb = 0.02
		lan1, lan2 := nw.NewSegment("lan1", lossy), nw.NewSegment("lan2", Ethernet100())
		var out outcome
		for _, seg := range []*SharedSegment{lan1, lan2} {
			seg.Tap(func(f Frame) {
				out.Frames = append(out.Frames, frameRec{seg.name, f.Pkt.ID, f.At, f.WireBytes})
			})
		}
		lan1.Attach(a)
		lan1.Attach(b)
		lan1.Attach(r)
		lan2.Attach(r)
		lan2.Attach(c)
		lan2.Attach(d)
		for _, h := range []*Node{a, b, c, d} {
			h.SetDefaultRoute("r")
		}
		sinks := []*Sink{sink(a, sinkPort), sink(c, sinkPort), sink(d, sinkPort)}
		cbrs := []*CBRSource{
			{Src: a, Dst: "c", DstPort: sinkPort, Size: 400, Interval: 2 * time.Millisecond, Jitter: 0.3, Seed: 11},
			{Src: b, Dst: "d", DstPort: sinkPort, Size: 900, Interval: 3 * time.Millisecond, Count: 50},
			{Src: d, Dst: "a", DstPort: sinkPort, Size: 64, Interval: 5 * time.Millisecond, Jitter: 1, Seed: 12, Count: 40},
			{Src: b, Dst: "c", DstPort: sinkPort + 1, Size: 100, Interval: 7 * time.Millisecond}, // no socket there
		}
		onoffs := []*OnOffSource{
			{Src: a, Dst: "d", DstPort: sinkPort, Size: 200, PeakBps: 2_000_000,
				MeanOn: 10 * time.Millisecond, MeanOff: 15 * time.Millisecond, Seed: 13, Until: 300 * time.Millisecond},
			{Src: b, Dst: "c", DstPort: sinkPort, Size: 1000, PeakBps: 4_000_000,
				MeanOn: 5 * time.Millisecond, MeanOff: 20 * time.Millisecond, Seed: 14},
		}
		for _, s := range cbrs {
			cbr(s)
		}
		for _, s := range onoffs {
			onoff(s)
		}
		// b's sources keep ticking through an outage of their host; a
		// receiver is away for a while too.
		k.At(100*time.Millisecond, func() { b.SetUp(false) })
		k.At(180*time.Millisecond, func() { b.SetUp(true) })
		k.At(250*time.Millisecond, func() { c.SetUp(false) })
		k.At(320*time.Millisecond, func() { c.SetUp(true) })
		events := k.RunUntil(500 * time.Millisecond)
		for _, s := range cbrs {
			out.Sent = append(out.Sent, s.Sent)
		}
		for _, s := range onoffs {
			out.Sent = append(out.Sent, s.Sent)
		}
		for _, s := range sinks {
			s.Sock = nil // the one field that differs by construction
			out.Sinks = append(out.Sinks, *s)
		}
		out.PacketsSent, out.PacketsDeliverd = nw.PacketsSent, nw.PacketsDelivered
		return out, events
	}
	got, events := run((*CBRSource).Run, (*OnOffSource).Run, NewSink)
	want, oracleEvents := run(oracleCBRRun, oracleOnOffRun, oracleNewSink)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event-driven endpoints diverge from the procs:\n got  %+v\n want %+v", got, want)
	}
	if len(got.Frames) < 1000 || got.Sent[1] != 50 || got.Sent[2] != 40 || got.PacketsDeliverd == 0 {
		t.Fatalf("run too thin to prove anything: %d frames, sent %v, %d delivered",
			len(got.Frames), got.Sent, got.PacketsDeliverd)
	}
	if saved := oracleEvents - events; saved != int(got.PacketsDeliverd)+len(got.Sinks) {
		t.Errorf("procs took %d events, events %d: %d fewer, want %d (one per delivered datagram, one per sink)",
			oracleEvents, events, saved, int(got.PacketsDeliverd)+len(got.Sinks))
	}
}

// Floors of the data plane.

// TestPacketIs128Bytes: a Packet is the one allocation a datagram costs and
// 128 bytes is a malloc size class; a 129th byte is billed as 144.
func TestPacketIs128Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 128 {
		t.Fatalf("Packet is %d bytes, want 128", size)
	}
}

// routedPair builds a -- lan1 -- r -- lan2 -- c with sinks on r and c.
func routedPair(t testing.TB) (k *sim.Kernel, a *Node, toRouter, toFar *Sink) {
	k = sim.NewKernel()
	t.Cleanup(k.Close)
	nw := New(k, 1)
	a, c := nw.NewHost("a"), nw.NewHost("c")
	r := nw.NewRouter("r", 10*time.Microsecond)
	lan1, lan2 := nw.NewSegment("lan1", Ethernet100()), nw.NewSegment("lan2", Ethernet100())
	lan1.Attach(a)
	lan1.Attach(r)
	lan2.Attach(r)
	lan2.Attach(c)
	a.SetDefaultRoute("r")
	c.SetDefaultRoute("r")
	return k, a, NewSink(r, sinkPort), NewSink(c, sinkPort)
}

// TestEventsPerDatagram: a datagram into a sink costs a transmit-done and a
// propagation-done per segment and a forwarding event per router with a
// processing delay — and nothing at either end.
func TestEventsPerDatagram(t *testing.T) {
	k, a, toRouter, toFar := routedPair(t)
	sock := a.OpenUDP(0)
	for _, tc := range []struct {
		dst    Addr
		sink   *Sink
		events int
	}{
		{"r", toRouter, 2}, // one segment; 3 when the sink was a proc
		{"c", toFar, 5},    // segment, router, segment; was 6
	} {
		sock.SendSize(tc.dst, sinkPort, 100)
		if n := k.Run(); n != tc.events || tc.sink.Received != 1 {
			t.Errorf("datagram to %s: %d events, %d received; want %d, 1", tc.dst, n, tc.sink.Received, tc.events)
		}
	}
}

// TestForwardingHitDoesNotAllocate: once a node has resolved a destination,
// a datagram there costs its Packet and nothing else — whether the socket
// repeats its last destination or alternates between two (the intern-table
// lookup), and again after a route change has made every entry stale.
func TestForwardingHitDoesNotAllocate(t *testing.T) {
	k, a, _, _ := routedPair(t)
	sock := a.OpenUDP(0)
	repeat := func() {
		sock.SendSize("c", sinkPort, 100)
		k.Run()
	}
	alternate := func() {
		sock.SendSize("c", sinkPort, 100)
		sock.SendSize("r", sinkPort, 100)
		k.Run()
	}
	alternate()
	if n := testing.AllocsPerRun(100, repeat); n != 1 {
		t.Errorf("repeated destination: %v allocations per datagram, want 1 (the Packet)", n)
	}
	if n := testing.AllocsPerRun(100, alternate) / 2; n != 1 {
		t.Errorf("alternating destinations: %v allocations per datagram, want 1", n)
	}
	a.AddRoute("c", "r")
	if n := testing.AllocsPerRun(100, alternate) / 2; n != 1 {
		t.Errorf("after a route change: %v allocations per datagram, want 1", n)
	}
}
