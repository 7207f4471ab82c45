package hifi

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nttcp"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestShardedHifiCrossRegionMeasurement: a per-region hifi director
// measures paths whose destinations live in a foreign region on another
// shard, with the responders provisioned explicitly. Measurements stay
// QualityDirect — the point of dragging NTTCP across the WAN.
func TestShardedHifiCrossRegionMeasurement(t *testing.T) {
	g := sim.NewShardGroup(2, topo.WANPropDelay)
	defer g.Close()
	s := topo.BuildShardedScaled(g, 5, 2, 1, 2)
	r0, r1 := s.Regions[0], s.Regions[1]
	cfg := nttcp.Config{MsgLen: 1024, InterSend: 5 * time.Millisecond, Count: 8, Timeout: 2 * time.Second}
	m := New(r0.Mgmt, cfg, 1)
	paths := core.CrossProductPaths(r0.ServerRefs(), r1.ClientRefs())
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput, metrics.OneWayLatency, metrics.Reachability}})
	// Submit resolved the local origins but could not see the foreign
	// destinations; provision those responders by node.
	for _, c := range r1.Clients {
		m.ProvisionResponder(c)
	}
	m.Start()
	g.Shard(0).RunUntil(30 * time.Second)

	if m.Sweeps == 0 {
		t.Fatal("no sweep completed")
	}
	for _, p := range paths {
		reach, ok := m.Query(p.ID, metrics.Reachability)
		if !ok || !reach.Reached() {
			t.Fatalf("path %s reachability: %v %v", p.ID, reach, ok)
		}
		lat, ok := m.Query(p.ID, metrics.OneWayLatency)
		if !ok || !lat.OK() {
			t.Fatalf("path %s latency: %v %v", p.ID, lat, ok)
		}
		if lat.Quality != core.QualityDirect {
			t.Fatalf("path %s not QualityDirect", p.ID)
		}
		// One-way latency must include the 2 ms WAN propagation.
		if lat.Value < topo.WANPropDelay.Seconds() {
			t.Fatalf("path %s latency %.4fs below one WAN hop", p.ID, lat.Value)
		}
	}
	if g.CrossShardMessages() == 0 {
		t.Fatal("NTTCP traffic crossed no shard boundary")
	}
}

// TestProvisionServerSimRejectsForeignShard: a director can own a path whose
// origin lives in a foreign network, provided the server simulator is
// provisioned by node and the sweep stays serial (the sequencer measures
// from its own proc) — but only on the sequencer's own kernel. An origin on
// another shard would be driven from outside its execution context, so
// wiring it panics instead of racing mid-run.
func TestProvisionServerSimRejectsForeignShard(t *testing.T) {
	cfg := nttcp.Config{MsgLen: 512, InterSend: 5 * time.Millisecond, Count: 4, Timeout: 2 * time.Second}

	// Two regions on one shard: two networks, one kernel. Region 0's
	// director measures the path from region 1's server to its own client.
	g1 := sim.NewShardGroup(1, topo.WANPropDelay)
	defer g1.Close()
	s := topo.BuildShardedScaled(g1, 8, 2, 1, 1)
	r0, r1 := s.Regions[0], s.Regions[1]
	m := New(r0.Mgmt, cfg, 1)
	paths := core.CrossProductPaths(r1.ServerRefs(), r0.ClientRefs())
	m.ProvisionServerSim(r1.Servers[0])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	g1.Shard(0).RunUntil(30 * time.Second)
	reach, ok := m.Query(paths[0].ID, metrics.Reachability)
	if !ok || !reach.Reached() {
		t.Fatalf("foreign-network origin on the same shard: %v %v", reach, ok)
	}

	// The same wiring with the regions on different shards is refused.
	g2 := sim.NewShardGroup(2, topo.WANPropDelay)
	defer g2.Close()
	s = topo.BuildShardedScaled(g2, 8, 2, 1, 1)
	r0, r1 = s.Regions[0], s.Regions[1]
	if r0.Shard == r1.Shard {
		t.Fatalf("regions share shard %d; the test needs them apart", r0.Shard)
	}
	m = New(r0.Mgmt, cfg, 1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "must share the sequencer's kernel") {
			t.Fatalf("ProvisionServerSim on a foreign shard: recovered %q, want the shared-kernel panic", msg)
		}
	}()
	m.ProvisionServerSim(r1.Servers[0])
}

// TestSubmitProvisionsResponderDespiteForeignOrigin: resolving the origin
// and resolving the destination are two independent lookups. An origin in
// a foreign network (same kernel) that Submit cannot resolve — it is wired
// afterwards with ProvisionServerSim — must not cost the path the responder
// on its own, resolvable, destination.
func TestSubmitProvisionsResponderDespiteForeignOrigin(t *testing.T) {
	cfg := nttcp.Config{MsgLen: 512, InterSend: 5 * time.Millisecond, Count: 4, Timeout: 2 * time.Second}
	g := sim.NewShardGroup(1, topo.WANPropDelay)
	defer g.Close()
	s := topo.BuildShardedScaled(g, 8, 2, 1, 1)
	r0, r1 := s.Regions[0], s.Regions[1]
	m := New(r0.Mgmt, cfg, 1)
	paths := core.CrossProductPaths(r1.ServerRefs(), r0.ClientRefs())
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.ProvisionServerSim(r1.Servers[0]) // after Submit: the origin was unresolvable there
	m.Start()
	g.Shard(0).RunUntil(30 * time.Second)
	for _, p := range paths {
		if reach, ok := m.Query(p.ID, metrics.Reachability); !ok || !reach.Reached() {
			t.Errorf("%s: %v (ok=%v), want reachable: no responder was provisioned on the destination", p.ID, reach, ok)
		}
	}
}
