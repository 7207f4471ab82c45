package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vclock"
)

// E14 exercises the sharded kernel at increasing shard counts on a fixed
// monitored system: R regions joined by a full WAN mesh, one COTS director
// per region collecting the paths that start in it, cross-region paths only,
// and a mid-run host failure whose detection latency, read from the owning
// region's database after the run, is the fidelity probe.
//
// The region count — not the shard count — fixes the workload, so every row
// simulates the same system: event totals and detection latency must agree
// across rows, while cut links, cross-shard messages, and windows grow with
// the partitioning. That invariance is the conservative protocol's
// correctness made visible; wall-clock speedup is deliberately excluded
// from the rows (tables must be deterministic) and measured instead by
// `make bench-shard`, which sweeps the same shard counts against the
// process clock.
func E14(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E14",
		Title: "Sharded kernel scaling: fixed workload vs shard count",
		Paper: "scale-out direction of §3's 10^2 networks / 10^3 computers model; monitoring results must not depend on the partitioning",
		Columns: []string{"shards", "regions", "agents", "paths", "cut links",
			"events", "xshard msgs", "windows", "detect"},
	}
	shardCounts := []int{1, 2}
	if !quick {
		shardCounts = []int{1, 2, 4, 8}
	}
	regions := pick(quick, 4, 8)
	serversPer := 1
	clientsPer := pick(quick, 2, 4)
	for _, sc := range shardCounts {
		t.AddRow(e14Row(sc, regions, serversPer, clientsPer, quick)...)
	}
	t.AddNote("host %s fails at t=%v; detect is the first reachability=0 sample after the failure", "g2-c1", e14FailAt)
	t.AddNote("identical events/detect across rows = shard-transparency; wall-clock speedup is measured by `make bench-shard` (hardware-dependent, excluded from deterministic tables)")
	return t
}

const e14FailAt = 5 * time.Second

// federation is the monitored fleet E14 and E15 share: one COTS director per
// region, the cross-region paths split between them by origin region.
type federation struct {
	agents *cots.AgentRegistry
	dirs   []*cots.Monitor // by region
	sm     *core.ShardedMonitor
	paths  []core.Path
}

// startFederation gives every region of s a drifting clock and a director
// on its mgmt host polling every poll, all sharing one agent registry;
// deploys agents along the cross-region paths; and submits reachability and
// one-way latency, split by origin region through a ShardedMonitor, before
// starting the directors.
// setup, when non-nil, configures each director before any agent deploys.
func startFederation(s *topo.ShardedScaled, poll time.Duration, setup func(*cots.Monitor)) *federation {
	// Clocks are seeded by region index so the clock map is a pure function
	// of the topology, not the partitioning.
	for i, r := range s.Regions {
		clk := &vclock.Clock{
			Offset: time.Duration(i+1) * time.Millisecond,
			Drift:  float64(i+1) * 20e-6,
		}
		for _, n := range append(append([]*netsim.Node{}, r.Servers...), r.Clients...) {
			n.LocalClock = clk
		}
	}
	f := &federation{agents: cots.NewAgentRegistry(), paths: s.CrossRegionPaths()}
	nodeByName := make(map[netsim.Addr]*netsim.Node)
	regionOf := make(map[netsim.Addr]int)
	for i, r := range s.Regions {
		for _, n := range r.Net.Nodes() {
			nodeByName[n.Name] = n
			regionOf[n.Name] = i
		}
	}
	members := make([]core.Monitor, len(s.Regions))
	for i, r := range s.Regions {
		m := cots.New(r.Mgmt, "public", poll)
		m.UseRegistry(f.agents)
		if setup != nil {
			setup(m)
		}
		f.dirs = append(f.dirs, m)
		members[i] = m
	}
	for _, p := range f.paths {
		owner := regionOf[p.Hops[0].Host]
		for _, hop := range p.Hops {
			f.dirs[owner].EnsureAgentOn(nodeByName[hop.Host])
		}
	}
	f.sm = core.NewShardedMonitor(func(p core.Path) int {
		return regionOf[p.Hops[0].Host]
	}, members...)
	f.sm.Submit(core.Request{Paths: f.paths, Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	for _, m := range f.dirs {
		m.Start()
	}
	return f
}

// e14Row runs the fixed workload on sc shards and returns one table row.
func e14Row(sc, regions, serversPer, clientsPer int, quick bool) []any {
	g := sim.NewShardGroup(sc, topo.WANPropDelay)
	defer g.Close()
	s := topo.BuildShardedScaled(g, 14, regions, serversPer, clientsPer)

	f := startFederation(s, time.Second, nil)
	paths, sm, dirs := f.paths, f.sm, f.dirs

	// Fail region 2's first client mid-run, scheduled on its own shard.
	victim := s.Regions[1].Clients[0]
	s.Regions[1].Net.K.At(e14FailAt, func() { victim.SetUp(false) })

	window := pick(quick, 12*time.Second, 20*time.Second)
	events := g.Shard(0).RunUntil(window)

	// Detection latency: first reachability=0 sample after the failure on a
	// path terminating at the victim.
	var victimPath core.Path
	for _, p := range paths {
		if p.Hops[len(p.Hops)-1].Host == victim.Name {
			victimPath = p
			break
		}
	}
	detect := time.Duration(0)
	if i, ok := sm.Owner(victimPath.ID); ok {
		if at := firstUnreachable(dirs[i].Database(), []core.Path{victimPath}, victim.Name, e14FailAt); at >= 0 {
			detect = at - e14FailAt
		}
	}
	detectCell := report.Cell{Text: "not detected"}
	if detect > 0 {
		detectCell = report.Num(detect.String(), detect.Seconds(), "s")
	}
	return []any{sc, regions, f.agents.Size(), len(paths), s.CutEdges(),
		events, g.CrossShardMessages(), g.Windows(), detectCell}
}
