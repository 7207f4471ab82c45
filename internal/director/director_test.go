package director

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topo"
)

func trap(src string, path core.PathID, rising bool) Trap {
	return Trap{Source: src, Path: path, Rising: rising, Count: 1}
}

func TestCoalescerLeadingEdgeThenSummary(t *testing.T) {
	c := NewCoalescer(100 * time.Millisecond)
	for i := 0; i < 5; i++ {
		c.Offer(trap("a", "p", true), time.Duration(i)*time.Millisecond)
	}
	out := c.Take()
	if len(out) != 1 || out[0].Count != 1 || !out[0].Rising {
		t.Fatalf("leading edge should pass alone, got %v", out)
	}
	c.Flush(50 * time.Millisecond) // window not yet expired
	if got := c.Take(); len(got) != 0 {
		t.Fatalf("early flush emitted %v", got)
	}
	c.Flush(150 * time.Millisecond)
	out = c.Take()
	if len(out) != 1 || out[0].Count != 4 {
		t.Fatalf("want one summary trap of count 4, got %v", out)
	}
	if c.Coalesced != 4 {
		t.Fatalf("Coalesced = %d, want 4", c.Coalesced)
	}
}

func TestCoalescerDirectionChangeNeverLost(t *testing.T) {
	c := NewCoalescer(time.Second)
	c.Offer(trap("a", "p", true), 0)
	c.Offer(trap("a", "p", true), 1)
	c.Offer(trap("a", "p", false), 2) // direction change mid-window
	out := c.Take()
	// lead R, summary R (count 1), lead F — in that order.
	if len(out) != 3 || !out[0].Rising || !out[1].Rising || out[1].Count != 1 || out[2].Rising {
		t.Fatalf("direction change mishandled: %v", out)
	}
	c.Flush(time.Hour) // long past every window
	if got := c.Take(); len(got) != 0 {
		t.Fatalf("unexpected residue %v", got)
	}
}

func TestCoalescerZeroWindowPassesThrough(t *testing.T) {
	c := NewCoalescer(0)
	for i := 0; i < 10; i++ {
		c.Offer(trap("a", "p", true), 0)
	}
	if out := c.Take(); len(out) != 10 {
		t.Fatalf("zero window must not coalesce, got %d traps", len(out))
	}
	if c.Coalesced != 0 {
		t.Fatalf("Coalesced = %d, want 0", c.Coalesced)
	}
}

func TestCoalescerKeysAreIndependent(t *testing.T) {
	c := NewCoalescer(time.Second)
	c.Offer(trap("a", "p", true), 0)
	c.Offer(trap("b", "p", true), 0)
	c.Offer(trap("a", "q", true), 0)
	if out := c.Take(); len(out) != 3 {
		t.Fatalf("three distinct streams, want three leads, got %d", len(out))
	}
}

// stubMember is a minimal Member: a bare DirectorBase-backed database the
// tests record into directly.
type stubMember struct {
	core.DirectorBase
}

func newStubMember(k *sim.Kernel) *stubMember {
	return &stubMember{DirectorBase: core.NewDirectorBase(k)}
}

func (s *stubMember) Start() {}

func buildStubTree(k *sim.Kernel, nw *netsim.Network, cfg Config) (*Director, []*Director) {
	rootHost := nw.NewHost("root")
	root := New(rootHost, "root", cfg)
	var leaves []*Director
	for _, name := range []string{"leaf0", "leaf1"} {
		h := nw.NewHost(netsim.Addr(name))
		l := NewLeaf(h, name, newStubMember(k), cfg)
		root.AddChild(l)
		leaves = append(leaves, l)
	}
	return root, leaves
}

// TestSubmitWithoutLeafPanicsNamingCause: a tree with no leaf cannot own a
// path, and says so instead of dividing by zero in the round-robin.
func TestSubmitWithoutLeafPanicsNamingCause(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	root := New(netsim.New(k, 1).NewHost("root"), "root", Config{})
	root.Submit(core.Request{}) // nothing to place: fine
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "root has no leaf") {
			t.Fatalf("Submit on a leafless tree: recovered %q", msg)
		}
	}()
	root.Submit(core.Request{Paths: []core.Path{{ID: "p"}}})
}

func TestTrapDropAccounting(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	cfg := Config{QueueCap: 8, TrapProcTime: time.Hour} // processor effectively stuck
	root, _ := buildStubTree(k, nw, cfg)
	root.Start()
	for i := 0; i < 20; i++ {
		root.OfferTrap(trap("s", "p", true))
	}
	if root.Stats.TrapsIn != 20 {
		t.Fatalf("TrapsIn = %d, want 20", root.Stats.TrapsIn)
	}
	if root.Stats.TrapsDropped != 12 {
		t.Fatalf("TrapsDropped = %d, want 12 (cap 8)", root.Stats.TrapsDropped)
	}
}

// TestRootPressureDoesNotOrphanHealthyLeaves: a root whose trap queue
// stays full for 10 s still ingests its leaves' re-exports; each leaf
// re-exports once every Reexport and none is declared dead.
func TestRootPressureDoesNotOrphanHealthyLeaves(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{QueueCap: 8, TrapProcTime: time.Hour} // processor stuck: the queue stays full
	root, leaves := buildStubTree(k, netsim.New(k, 1), cfg)
	root.Submit(core.Request{Paths: []core.Path{{ID: "p0"}, {ID: "p1"}}})
	root.Start()
	for i := 0; i < cfg.QueueCap; i++ {
		root.OfferTrap(trap("s", "p", true))
	}
	const horizon = 10 * time.Second
	k.RunUntil(horizon)
	if held := root.trapQ.Len() + root.trapQ.InService(); held != cfg.QueueCap {
		t.Fatalf("scenario drifted: the root holds %d traps, want a full queue of %d", held, cfg.QueueCap)
	}
	for _, l := range leaves {
		if want := uint64(horizon / root.Cfg.Reexport); l.Stats.Reexports != want {
			t.Errorf("%s re-exported %d times in %v, want %d", l.Name, l.Stats.Reexports, horizon, want)
		}
	}
	if root.Stats.Adoptions != 0 || root.Stats.Reclaims != 0 {
		t.Fatalf("healthy leaves failed over under the root's own pressure: %d adoptions, %d reclaims (events: %v)",
			root.Stats.Adoptions, root.Stats.Reclaims, root.Events)
	}
}

// TestReexportRunsNoProc: the whole tree runs in kernel events. A stub
// tree takes a trap storm while one leaf dies and comes back; the kernel
// never switches into a proc, and at every Reexport tick each leaf that is
// up re-exports exactly once and a down one not at all.
func TestReexportRunsNoProc(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	root, leaves := buildStubTree(k, netsim.New(k, 1), Config{CoalesceWindow: 100 * time.Millisecond})
	root.Submit(core.Request{Paths: []core.Path{{ID: "p0"}, {ID: "p1"}}})
	root.Start()
	for i := 0; i < 400; i++ {
		k.At(10*time.Millisecond+time.Duration(i)*5*time.Millisecond, func() {
			leaves[i%2].OfferTrap(trap("s", core.PathID(fmt.Sprint("p", i%4)), i/40%2 == 0))
		})
	}
	k.At(1100*time.Millisecond, func() { leaves[0].Host.SetUp(false) })
	k.At(2600*time.Millisecond, func() { leaves[0].Host.SetUp(true) })
	sent := make([]uint64, len(leaves))
	for tick := 1; tick <= 16; tick++ {
		at := time.Duration(tick) * root.Cfg.Reexport
		k.RunUntil(at)
		for i, l := range leaves {
			want := sent[i]
			if l.Host.Up() {
				want++
			}
			if l.Stats.Reexports != want {
				t.Fatalf("at %v: %s (up %v) has re-exported %d times, want %d", at, l.Name, l.Host.Up(), l.Stats.Reexports, want)
			}
			sent[i] = want
		}
	}
	if n := k.ProcSwitches(); n != 0 {
		t.Fatalf("the tree switched into a proc %d times, want 0", n)
	}
	if leaves[0].Stats.TrapsIn == 0 || leaves[0].Stats.TrapsLost == 0 || leaves[1].co.Coalesced == 0 ||
		root.Stats.Adoptions != 1 || root.Stats.Reclaims != 1 {
		t.Fatalf("scenario drifted: leaf0 %+v, leaf1 coalesced %d, root %+v (events: %v)",
			leaves[0].Stats, leaves[1].co.Coalesced, root.Stats, root.Events)
	}
}

// TestOrphanAdoptedOnceASiblingRevives: when both leaves die, neither
// shard has a live sibling to go to; once one leaf comes back it reclaims
// its own shard and adopts the other's on the same tick.
func TestOrphanAdoptedOnceASiblingRevives(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	root, leaves := buildStubTree(k, netsim.New(k, 1), Config{})
	root.Submit(core.Request{Paths: []core.Path{{ID: "p0"}, {ID: "p1"}}})
	root.Start()
	k.At(2*time.Second, func() {
		leaves[0].Host.SetUp(false)
		leaves[1].Host.SetUp(false)
	})
	k.At(5*time.Second, func() { leaves[1].Host.SetUp(true) })
	k.RunUntil(10 * time.Second)
	if len(leaves[0].assigned) != 0 || len(leaves[1].assigned) != 2 || root.Stats.Adoptions != 1 || root.Stats.Reclaims != 1 {
		t.Fatalf("shards %d/%d, %d adoptions, %d reclaims (events: %v)",
			len(leaves[0].assigned), len(leaves[1].assigned), root.Stats.Adoptions, root.Stats.Reclaims, root.Events)
	}
	if got := leaves[1].member.(*stubMember).Request().Paths; len(got) != 2 {
		t.Fatalf("adopter's member runs %d paths, want 2", len(got))
	}
}

// TestBatchLedgerBalances: every re-export a child sends is ingested,
// dropped at the full queue, lost to a down parent, queued, or in service
// (the record queue's server holds it).
func TestBatchLedgerBalances(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	root, leaves := buildStubTree(k, netsim.New(k, 1), Config{})
	root.Submit(core.Request{Paths: []core.Path{{ID: "p0"}, {ID: "p1"}}, Metrics: []metrics.Metric{metrics.Reachability}})
	for i, l := range leaves {
		l.DB.Record(core.Measurement{Path: core.PathID([]string{"p0", "p1"}[i]), Metric: metrics.Reachability, Value: 1})
	}
	root.Start()
	check := func(at time.Duration) {
		t.Helper()
		k.RunUntil(at)
		var sent uint64
		for _, l := range leaves {
			sent += l.Stats.Reexports
		}
		s := root.Stats
		if got := s.BatchesIn + s.BatchesDropped + s.BatchesLost + uint64(root.recQ.Len()+root.recQ.InService()); sent == 0 || got != sent {
			t.Fatalf("at %v: children sent %d batches, root accounts for %d (%+v)", at, sent, got, s)
		}
	}
	check(1751 * time.Millisecond)
	if root.Stats.BatchesLost != 0 {
		t.Fatalf("a live root lost %d batches", root.Stats.BatchesLost)
	}
	k.At(2*time.Second, func() { root.Host.SetUp(false) })
	check(5001 * time.Millisecond)
	if root.Stats.BatchesLost != 24 || root.Stats.RecordsLost != 24 {
		t.Fatalf("root down from 2 s to 5 s lost %d batches, %d records; want 24 and 24 (2 leaves × 12 ticks × 1 record)",
			root.Stats.BatchesLost, root.Stats.RecordsLost)
	}
}

func TestTrapsFlowUpTreeCoalesced(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	cfg := Config{TrapProcTime: time.Millisecond, CoalesceWindow: 100 * time.Millisecond}
	root, leaves := buildStubTree(k, nw, cfg)
	var delivered []Trap
	root.OnTrap = func(t Trap) { delivered = append(delivered, t) }
	root.Start()
	for i := 0; i < 50; i++ {
		leaves[0].OfferTrap(trap("s", "p", true))
	}
	k.RunUntil(time.Second)
	// Leaf: lead + one summary(49). Root re-coalesces what arrives within
	// its own window: lead passes, summary arrives later and leads again
	// or is absorbed — either way total count must be conserved.
	var total uint64
	for _, tr := range delivered {
		total += tr.Count
	}
	if total != 50 {
		t.Fatalf("count not conserved across the tree: %d", total)
	}
	if len(delivered) > 3 {
		t.Fatalf("storm of 50 identical traps should reach the root as <=3 summaries, got %d", len(delivered))
	}
	if leaves[0].Stats.TrapsForwarded >= 50 {
		t.Fatalf("leaf forwarded %d traps, coalescing ineffective", leaves[0].Stats.TrapsForwarded)
	}
}

// buildCotsTree assembles a 2-leaf tree over a scaled topology with real
// cots members sharing one agent registry; returns root, leaves, paths.
func buildCotsTree(k *sim.Kernel, cfg Config) (*topo.Scaled, *cots.AgentRegistry, *Director, []*Director, []core.Path) {
	h := topo.BuildScaled(k, 11, 2, 3)
	reg := cots.NewAgentRegistry()
	root := New(h.Mgmt, "root", cfg)
	var leaves []*Director
	for i := 0; i < 2; i++ {
		m := cots.New(h.Hosts[i*3], "public", 500*time.Millisecond)
		m.Database().EnableSketches(sketch.Thresholds{})
		m.UseRegistry(reg)
		l := NewLeaf(h.Hosts[i*3], "leaf"+string(rune('0'+i)), m, cfg)
		root.AddChild(l)
		leaves = append(leaves, l)
	}
	var paths []core.Path
	for i := 0; i < 2; i++ {
		paths = append(paths, core.NewPath(
			core.ProcessRef{Host: h.Hosts[i*3+1].Name},
			core.ProcessRef{Host: h.Hosts[i*3+2].Name}))
	}
	return h, reg, root, leaves, paths
}

func TestRootServesFreshQueriesFromLeafData(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{Reexport: 250 * time.Millisecond, TTL: 2 * time.Second}
	_, _, root, leaves, paths := buildCotsTree(k, cfg)
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	root.Start()
	k.RunUntil(3 * time.Second)

	// Round-robin sharding: path 0 on leaf 0, path 1 on leaf 1.
	if len(leaves[0].assigned) != 1 || len(leaves[1].assigned) != 1 {
		t.Fatalf("sharding wrong: %d/%d", len(leaves[0].assigned), len(leaves[1].assigned))
	}
	for _, path := range paths {
		m, ok := root.QueryFresh(path.ID, metrics.Reachability, k.Now(), 2*time.Second)
		if !ok {
			t.Fatalf("root has no fresh reachability for %s", path.ID)
		}
		if !m.Reached() {
			t.Fatalf("path %s unexpectedly unreachable: %v", path.ID, m)
		}
		// The root's copy is the leaf's measurement verbatim.
		lm, _ := root.leafFor(path.ID).Query(path.ID, metrics.Reachability)
		if m.TakenAt != lm.TakenAt || m.Value != lm.Value {
			t.Fatalf("root copy diverges from leaf: %v vs %v", m, lm)
		}
		// Quantile queries delegate to the owning leaf's sketch.
		if _, ok := root.Quantile(path.ID, metrics.OneWayLatency, 0.95); !ok {
			t.Fatalf("root cannot answer quantile for %s", path.ID)
		}
	}
	if root.Stats.RecordsIn == 0 || root.Stats.Reexports != 0 {
		t.Fatalf("unexpected flow stats: %+v", root.Stats)
	}
	if agg, ok := root.AggregateSketch(metrics.OneWayLatency); !ok || agg.Summary().Count == 0 {
		t.Fatal("region sketch aggregation empty at root")
	}
}

func TestLeafDeathAdoptionAndReclaim(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{
		Reexport: 250 * time.Millisecond, TTL: time.Second,
		AdoptAfter: time.Second, Supervise: 250 * time.Millisecond,
		WatchdogEvery: 100 * time.Millisecond,
	}
	h, reg, root, leaves, paths := buildCotsTree(k, cfg)
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	root.Start()
	k.RunUntil(2 * time.Second)
	orphanPath := leaves[0].assigned[0]
	agentsBefore := reg.Size()

	// Kill leaf 0's host: heartbeats stop, shard must move to leaf 1.
	h.Hosts[0].SetUp(false)
	k.RunUntil(3500 * time.Millisecond)
	if root.Stats.Adoptions != 1 {
		t.Fatalf("Adoptions = %d, want 1 (events: %v)", root.Stats.Adoptions, root.Events)
	}
	if len(leaves[1].assigned) != 2 || len(leaves[0].assigned) != 0 {
		t.Fatalf("shard not moved: %d/%d", len(leaves[0].assigned), len(leaves[1].assigned))
	}
	// The adopter found the orphan shard's agents in the shared registry
	// instead of re-deploying them.
	if reg.Size() != agentsBefore {
		t.Fatalf("adoption re-deployed agents: %d -> %d", agentsBefore, reg.Size())
	}
	// The adopter's sweeps cover the orphan path; the root regains
	// freshness — via the sibling, never fabricated.
	k.RunUntil(5 * time.Second)
	if _, ok := root.QueryFresh(orphanPath.ID, metrics.Reachability, k.Now(), time.Second); !ok {
		t.Fatal("orphan path never recovered freshness after adoption")
	}
	if l := root.leafFor(orphanPath.ID); l != leaves[1] {
		t.Fatalf("quantile delegation still points at dead leaf")
	}

	// Revive leaf 0: its heartbeats resume and the home shard comes back.
	h.Hosts[0].SetUp(true)
	k.RunUntil(7 * time.Second)
	if root.Stats.Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1 (events: %v)", root.Stats.Reclaims, root.Events)
	}
	if len(leaves[0].assigned) != 1 || len(leaves[1].assigned) != 1 {
		t.Fatalf("shard not reclaimed: %d/%d", len(leaves[0].assigned), len(leaves[1].assigned))
	}
}

func TestStalenessSurfacedNotMasked(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{
		Reexport: 250 * time.Millisecond, TTL: time.Second,
		AdoptAfter:    time.Hour, // no adoption: pure staleness exposure
		WatchdogEvery: 100 * time.Millisecond,
	}
	h, _, root, leaves, paths := buildCotsTree(k, cfg)
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	root.Start()
	k.RunUntil(2 * time.Second)
	orphanPath := leaves[0].assigned[0]
	h.Hosts[0].SetUp(false)
	k.RunUntil(4 * time.Second)
	if _, ok := root.QueryFresh(orphanPath.ID, metrics.Reachability, k.Now(), time.Second); ok {
		t.Fatal("root served a fresh-looking value for a dead leaf's path")
	}
	if _, ok := root.LastKnown(orphanPath.ID, metrics.Reachability); !ok {
		t.Fatal("last-known-value reporting should survive staleness")
	}
}

func TestManagerRunsUnchangedOverTree(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 7)
	reg := cots.NewAgentRegistry()
	cfg := Config{Reexport: 250 * time.Millisecond, TTL: 2 * time.Second}
	root := New(h.Mgmt, "root", cfg)
	for i := 0; i < 2; i++ {
		m := cots.New(h.Clients[i], "public", 500*time.Millisecond)
		m.UseRegistry(reg)
		root.AddChild(NewLeaf(h.Clients[i], "leaf"+string(rune('0'+i)), m, cfg))
	}
	mgr := manager.New(h.Mgmt, root, manager.Policy{
		RequireReachable: true,
		Grace:            2,
		EvalInterval:     500 * time.Millisecond,
		MaxStaleness:     2 * time.Second,
	})
	mgr.DefinePool("server", []netsim.Addr{"s1", "s2", "s3"})
	mgr.DefinePool("client", []netsim.Addr{"c5", "c6"})
	for _, proc := range []struct{ name, role string }{
		{"rtds-server-a", "server"}, {"rtds-server-b", "server"}, {"rtds-client", "client"},
	} {
		if _, err := mgr.Place(proc.name, proc.role); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Start("server", "client")
	root.Start()
	k.RunUntil(3 * time.Second)
	if len(mgr.Reconfigs) != 0 {
		t.Fatalf("healthy system reconfigured: %v", mgr.Reconfigs)
	}
	// Kill the server's host; the manager must fail it over using only the
	// root's (path, metric) API.
	h.Net.Node("s1").SetUp(false)
	k.RunUntil(10 * time.Second)
	if len(mgr.Reconfigs) == 0 {
		t.Fatal("manager never reconfigured over the director tree")
	}
	if mgr.Reconfigs[0].From != "s1" || mgr.Reconfigs[0].To == "s1" {
		t.Fatalf("unexpected reconfig %v", mgr.Reconfigs[0])
	}
}

// TestTelemetryReadsOwnersFields drives a 2-leaf tree with small queues and a
// slow root through a short trap storm and reads each director's ledger —
// Stats, the coalescer's absorbed count, both queue depths —
// straight from its owner, live from a kernel event mid-storm and again
// after the run. (The tree publishes no instruments of its own; the name
// dates from when it did.)
func TestTelemetryReadsOwnersFields(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{
		QueueCap: 4, Supervise: 50 * time.Millisecond,
		TrapProcTime: 5 * time.Millisecond, RecordProcTime: 150 * time.Millisecond,
		CoalesceWindow: 20 * time.Millisecond, Reexport: 100 * time.Millisecond, TTL: 2 * time.Second,
	}
	_, _, root, leaves, paths := buildCotsTree(k, cfg)
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	root.Start()

	// A ledger never runs ahead of what was offered, and a bounded queue
	// never holds more than its cap.
	check := func(when string, offered uint64) {
		t.Helper()
		for _, l := range leaves {
			if l.Stats.TrapsIn != offered || l.Stats.TrapsDropped > offered || l.co.Coalesced > offered {
				t.Errorf("%s: %s ledger %+v coalesced %d after %d offers", when, l.Name, l.Stats, l.co.Coalesced, offered)
			}
		}
		for _, d := range append([]*Director{root}, leaves...) {
			if d.trapQ.Len() > cfg.QueueCap || d.recQ.Len() > cfg.QueueCap {
				t.Errorf("%s: %s queues %d/%d exceed cap %d", when, d.Name, d.trapQ.Len(), d.recQ.Len(), cfg.QueueCap)
			}
		}
	}
	// The storm: 120 traps a leaf in 120 ms, alternating between two paths
	// so some coalesce and some lead; 4-deep queues overflow.
	for i := 0; i < 120; i++ {
		i := i
		k.At(time.Second+time.Duration(i)*time.Millisecond, func() {
			for _, l := range leaves {
				l.OfferTrap(trap("s", paths[i%2].ID, i%4 < 2))
			}
		})
	}
	var midDepth int
	k.At(time.Second+110*time.Millisecond, func() {
		midDepth = leaves[0].trapQ.Len()
		check("mid-storm", 111)
	})
	k.RunUntil(3 * time.Second)
	check("after the run", 120)

	l0 := leaves[0]
	if midDepth == 0 {
		t.Errorf("scenario drifted: mid-storm leaf0 queue depth 0: the live gauges saw nothing")
	}
	if l0.Stats.TrapsIn != 120 || l0.Stats.TrapsDropped == 0 || l0.co.Coalesced == 0 ||
		root.Stats.TrapsIn == 0 || root.Stats.RecordsIn == 0 || root.Stats.RecordsDropped == 0 {
		t.Errorf("scenario drifted: leaf0 %+v coalesced %d, root %+v", l0.Stats, l0.co.Coalesced, root.Stats)
	}
}

// TestTrapLedgerAtClose: each director checks TrapsIn = TrapsDropped +
// TrapsProcessed + queued + in service when its kernel closes. Closed with
// one trap processed, one in service, three queued and one dropped, it
// balances; a ledger made to miss a trap panics at Close with every term.
func TestTrapLedgerAtClose(t *testing.T) {
	for _, broken := range []bool{false, true} {
		k := sim.NewKernel()
		root, _ := buildStubTree(k, netsim.New(k, 1), Config{QueueCap: 4})
		root.Start()
		k.At(0, func() {
			for i := 0; i < 6; i++ {
				root.OfferTrap(trap("s", core.PathID(fmt.Sprint(i)), true))
			}
		})
		k.RunUntil(3 * time.Millisecond) // TrapProcTime is 2 ms
		st := root.Stats
		if st.TrapsIn != 6 || st.TrapsDropped != 1 || st.TrapsProcessed != 1 || root.trapQ.Len() != 3 || root.trapQ.InService() != 1 {
			t.Fatalf("at 3 ms: %+v, queued %d, in service %d; want 6 in, 1 dropped, 1 processed, 3 queued, 1 in service",
				st, root.trapQ.Len(), root.trapQ.InService())
		}
		if broken {
			root.Stats.TrapsIn++
		}
		var got any
		func() {
			defer func() { got = recover() }()
			k.Close()
		}()
		want := "trap ledger of root is off by 1: in 7, but dropped 1 + processed 1 + queued 3 + in service 1 = 6"
		switch {
		case !broken && got != nil:
			t.Fatalf("a balanced ledger panicked at Close: %v", got)
		case broken && !strings.Contains(fmt.Sprint(got), want):
			t.Fatalf("a broken ledger panicked at Close with %v, want %q", got, want)
		}
	}
}

// TestReclaimMidSweepPublishesEachPathOnce: a reclaim that lands while an
// adopter's sweep is blocked in its polls must not rewrite the path list the
// sweep goes on to publish from. leaf1 adopts leaf0's shard and then leaf2's;
// h3-3 is down, so each of leaf1's sweeps waits out a poll timeout, and
// leaf0's revival is reclaimed inside one. Every sweep of leaf1 publishes
// each of its paths once.
func TestReclaimMidSweepPublishesEachPathOnce(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := Config{
		Reexport: 250 * time.Millisecond, TTL: time.Second,
		AdoptAfter: time.Second, Supervise: 250 * time.Millisecond,
		WatchdogEvery: 100 * time.Millisecond,
	}
	h := topo.BuildScaled(k, 11, 3, 3)
	reg := cots.NewAgentRegistry()
	root := New(h.Mgmt, "root", cfg)
	var leaves []*Director
	var members []*cots.Monitor
	var paths []core.Path
	for i := 0; i < 3; i++ {
		m := cots.New(h.Hosts[i*3], "public", 500*time.Millisecond)
		m.UseRegistry(reg)
		l := NewLeaf(h.Hosts[i*3], fmt.Sprintf("leaf%d", i), m, cfg)
		root.AddChild(l)
		leaves = append(leaves, l)
		members = append(members, m)
		paths = append(paths, core.NewPath(
			core.ProcessRef{Host: h.Hosts[i*3+1].Name},
			core.ProcessRef{Host: h.Hosts[i*3+2].Name}))
	}
	// leaf1's publishes, one list per sweep (a sweep stamps every
	// measurement with its end instant).
	var sweeps [][]core.PathID
	var last time.Duration
	forward := members[1].OnPublish
	members[1].OnPublish = func(m core.Measurement) {
		if len(sweeps) == 0 || m.TakenAt != last {
			sweeps, last = append(sweeps, nil), m.TakenAt
		}
		sweeps[len(sweeps)-1] = append(sweeps[len(sweeps)-1], m.Path)
		if forward != nil {
			forward(m)
		}
	}
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	root.Start()
	h.Hosts[8].SetUp(false)
	k.RunUntil(2 * time.Second)
	h.Hosts[0].SetUp(false)
	k.RunUntil(4 * time.Second)
	h.Hosts[6].SetUp(false)
	k.RunUntil(5500 * time.Millisecond)
	h.Hosts[0].SetUp(true)
	k.RunUntil(8 * time.Second)

	if root.Stats.Adoptions != 2 || root.Stats.Reclaims != 1 {
		t.Fatalf("%d adoptions, %d reclaims, want 2 and 1 (events: %v)", root.Stats.Adoptions, root.Stats.Reclaims, root.Events)
	}
	for _, ids := range sweeps {
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(ids) {
			t.Errorf("a sweep of leaf1 published a path twice: %v (events: %v)", ids, root.Events)
		}
	}
}
