package cots

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// wireShardedCots builds R regions on the group, gives each region its own
// director (on its mgmt host) sharing one agent registry, and federates
// splits the paths over them with a ShardedMonitor keyed by the path's
// origin region.
func wireShardedCots(g *sim.ShardGroup, regions int) (*topo.ShardedScaled, *core.ShardedMonitor, *AgentRegistry, []*Monitor) {
	s := topo.BuildShardedScaled(g, 3, regions, 1, 1)
	reg := NewAgentRegistry()
	nodeByName := make(map[netsim.Addr]*netsim.Node)
	regionOf := make(map[netsim.Addr]int)
	for i, r := range s.Regions {
		for _, n := range r.Net.Nodes() {
			nodeByName[n.Name] = n
			regionOf[n.Name] = i
		}
	}
	dirs := make([]*Monitor, regions)
	members := make([]core.Monitor, regions)
	for i, r := range s.Regions {
		m := New(r.Mgmt, "public", time.Second)
		m.UseRegistry(reg)
		dirs[i] = m
		members[i] = m
	}
	paths := s.CrossRegionPaths()
	// Foreign endpoints (the next region's clients) need explicit
	// deployment: the owning director cannot resolve them by name.
	for _, p := range paths {
		owner := regionOf[p.Hops[0].Host]
		for _, hop := range p.Hops {
			dirs[owner].EnsureAgentOn(nodeByName[hop.Host])
		}
	}
	sm := core.NewShardedMonitor(func(p core.Path) int {
		return regionOf[p.Hops[0].Host]
	}, members...)
	sm.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	for _, m := range dirs {
		m.Start()
	}
	return s, sm, reg, dirs
}

// ownerQuery reads a path's current value from the database of the region
// that owns it, as a reader after the run does: the split names the owner,
// and the owner's monitor answers.
func ownerQuery(t *testing.T, sm *core.ShardedMonitor, dirs []*Monitor, path core.PathID, metric metrics.Metric) (core.Measurement, bool) {
	t.Helper()
	i, ok := sm.Owner(path)
	if !ok {
		t.Fatalf("path %s has no owner", path)
	}
	return dirs[i].Query(path, metric)
}

// TestShardedCotsCrossRegionPolling: per-region directors poll foreign
// agents across WAN (and shard) boundaries, and after the run every path
// has a value in its owning region's database.
func TestShardedCotsCrossRegionPolling(t *testing.T) {
	g := sim.NewShardGroup(2, topo.WANPropDelay)
	defer g.Close()
	s, sm, reg, dirs := wireShardedCots(g, 3)
	g.Shard(0).RunUntil(10 * time.Second)

	for _, p := range s.CrossRegionPaths() {
		reach, ok := ownerQuery(t, sm, dirs, p.ID, metrics.Reachability)
		if !ok || !reach.Reached() {
			t.Fatalf("path %s reachability: %v %v", p.ID, reach, ok)
		}
		lat, ok := ownerQuery(t, sm, dirs, p.ID, metrics.OneWayLatency)
		if !ok || !lat.OK() || lat.Value <= 0 {
			t.Fatalf("path %s latency: %v %v", p.ID, lat, ok)
		}
		// Cross-region latency approximations ride the 2 ms WAN hop, so
		// half-RTT must be at least one propagation delay.
		if lat.Value < topo.WANPropDelay.Seconds() {
			t.Fatalf("path %s latency %.4fs below one WAN hop", p.ID, lat.Value)
		}
	}
	// 3 regions × (1 server + 1 client): server agents deployed by the
	// owning region, client agents by the previous region — 6 hosts total,
	// each with exactly one agent.
	if reg.Size() != 6 {
		t.Fatalf("registry has %d agents, want 6", reg.Size())
	}
	if g.CrossShardMessages() == 0 {
		t.Fatal("polling crossed no shard boundary")
	}
}

// TestShardedCotsPerRegionReadersMidRun: while the run goes, a reader on
// each region's own kernel reads that region's owned paths from that
// region's monitor — the only mid-run read the ownership rule allows, and
// race-clean under -race. Every owned path is read at every tick, and each
// is seen reached before the run ends.
func TestShardedCotsPerRegionReadersMidRun(t *testing.T) {
	const regions, window = 3, 10 * time.Second
	g := sim.NewShardGroup(2, topo.WANPropDelay)
	defer g.Close()
	s, sm, _, dirs := wireShardedCots(g, regions)
	owned := make([][]core.PathID, regions)
	for _, p := range s.CrossRegionPaths() {
		i, ok := sm.Owner(p.ID)
		if !ok {
			t.Fatalf("path %s has no owner", p.ID)
		}
		owned[i] = append(owned[i], p.ID)
	}
	reads := make([]int, regions)
	reachedAt := make([]map[core.PathID]time.Duration, regions)
	var readers []sim.Timer
	for i, r := range s.Regions {
		i, k := i, r.Net.K
		reachedAt[i] = make(map[core.PathID]time.Duration)
		readers = append(readers, k.Every(time.Second, func() {
			for _, id := range owned[i] {
				reads[i]++
				if m, ok := dirs[i].Query(id, metrics.Reachability); ok && m.Reached() {
					if _, seen := reachedAt[i][id]; !seen {
						reachedAt[i][id] = k.Now()
					}
				}
			}
		}))
	}
	g.RunUntil(window)
	for _, tm := range readers {
		tm.Stop()
	}

	ticks := int(window / time.Second)
	for i := range s.Regions {
		if len(owned[i]) == 0 {
			t.Fatalf("region %d owns no path", i)
		}
		if want := ticks * len(owned[i]); reads[i] != want {
			t.Errorf("region %d: %d reads, want %d", i, reads[i], want)
		}
		for _, id := range owned[i] {
			at, ok := reachedAt[i][id]
			if !ok || at >= window {
				t.Errorf("region %d: path %s not seen reached mid-run (%v, %v)", i, id, at, ok)
			}
		}
	}
	if g.CrossShardMessages() == 0 {
		t.Fatal("polling crossed no shard boundary")
	}
}

// TestAgentRegistryPreventsDoubleDeploy: two directors sharing a registry
// deploy one agent per host, and the second director reuses the first's.
func TestAgentRegistryPreventsDoubleDeploy(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	reg := NewAgentRegistry()
	m1 := New(h.Mgmt, "public", time.Second)
	m1.UseRegistry(reg)
	m2 := New(h.Probe, "public", time.Second)
	m2.UseRegistry(reg)
	a1 := m1.EnsureAgent("s1")
	a2 := m2.EnsureAgent("s1")
	if a1 == nil || a1 != a2 {
		t.Fatalf("registry did not share the agent: %p vs %p", a1, a2)
	}
	if reg.Size() != 1 {
		t.Fatalf("registry size %d, want 1", reg.Size())
	}
	if m2.EnsureAgentOn(h.Servers[0]) != a1 {
		t.Fatal("EnsureAgentOn did not reuse the registered agent")
	}
}

// TestShardedCotsDeterministicAcrossShardCounts: the same monitored system
// yields identical measurement values at 1 and 2 shards.
func TestShardedCotsDeterministicAcrossShardCounts(t *testing.T) {
	collect := func(shards int) []string {
		g := sim.NewShardGroup(shards, topo.WANPropDelay)
		defer g.Close()
		s, sm, _, dirs := wireShardedCots(g, 3)
		g.Shard(0).RunUntil(10 * time.Second)
		var out []string
		for _, p := range s.CrossRegionPaths() {
			m, _ := ownerQuery(t, sm, dirs, p.ID, metrics.OneWayLatency)
			out = append(out, m.String())
		}
		return out
	}
	a, b := collect(1), collect(2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("path %d differs across shard counts:\n1 shard:  %s\n2 shards: %s", i, a[i], b[i])
		}
	}
}
