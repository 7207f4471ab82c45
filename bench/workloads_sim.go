package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/director"
	"repro/internal/hifi"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/results"
	"repro/internal/rtds"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/vclock"
)

// pickD returns full, or smoke on smoke-size runs.
func (c *ctx) pickD(full, smoke time.Duration) time.Duration {
	if c.smoke {
		return smoke
	}
	return full
}

func (c *ctx) pickN(full, smoke int) int {
	if c.smoke {
		return smoke
	}
	return full
}

// newResults opens the JSONL results sink every results-enabled workload
// writes through: *results.Writer over a counting writer, behind the
// harness's batch seam.
func (c *ctx) newResults(scenario string, shards int) (*sinkSeam, *streamSum) {
	sum := newStreamSum(c.tr != nil, c.archiveBytes)
	w := results.NewWriter(sum, scenario, shards, results.RunMeta{Tool: "bench"})
	return &sinkSeam{inner: w, tr: c.tr}, sum
}

func sinkTotals(r *result, s *sinkSeam) {
	r.c["results.batches"] = float64(s.batches)
	r.c["results.samples"] = float64(s.samples)
}

// monitorSeam decorates the monitor handed to manager.New, from outside:
// it sees every call the manager makes into the monitor. It always notes
// the age of each answer (the senescence the manager acted on); on traced
// iterations it also times each call.
type monitorSeam struct {
	core.Monitor
	fresh   core.FreshQuerier
	quant   core.QuantileQuerier
	k       *sim.Kernel
	tr      *tracer
	queries uint64
	acted   ages
}

func (m *monitorSeam) Query(path core.PathID, metric metrics.Metric) (core.Measurement, bool) {
	m.queries++
	sp := m.tr.begin("manager.query")
	meas, ok := m.Monitor.Query(path, metric)
	m.tr.end(sp)
	if ok {
		m.acted.add(m.k.Now(), meas)
	}
	return meas, ok
}

func (m *monitorSeam) QueryFresh(path core.PathID, metric metrics.Metric, now, ttl time.Duration) (core.Measurement, bool) {
	m.queries++
	sp := m.tr.begin("manager.query")
	meas, ok := m.fresh.QueryFresh(path, metric, now, ttl)
	m.tr.end(sp)
	if ok {
		m.acted.add(now, meas)
	}
	return meas, ok
}

func (m *monitorSeam) Quantile(path core.PathID, metric metrics.Metric, p float64) (float64, bool) {
	m.queries++
	sp := m.tr.begin("manager.query")
	v, ok := m.quant.Quantile(path, metric, p)
	m.tr.end(sp)
	return v, ok
}

func (m *monitorSeam) QuantileSummary(path core.PathID, metric metrics.Metric) (sketch.Summary, bool) {
	m.queries++
	sp := m.tr.begin("manager.query")
	s, ok := m.quant.QuantileSummary(path, metric)
	m.tr.end(sp)
	return s, ok
}

// hiperdRTDSHifi is the paper's §5.1 deployment, wired exactly as
// cmd/hiperd wires it (plus sketches): RTDS radar -> 3 servers -> 9
// clients, the NTTCP sequencer over the 27 paths, and a resource manager
// that restarts s2's server on a spare when s2 dies.
func hiperdRTDSHifi(c *ctx) (*job, error) {
	const failAt = 10 * time.Second
	horizon := c.pickD(400*time.Second, 30*time.Second)

	k := sim.NewKernel()
	tb := c.tr.begin("topo.build")
	h := topo.BuildHiPerD(k, c.seed)
	c.tr.end(tb)

	dep := c.tr.begin("monitor.deploy")
	radar := rtds.NewRadar(k, c.seed+6, 60, 100*time.Millisecond)
	var clients []*rtds.Client
	for _, cl := range h.Clients {
		clients = append(clients, rtds.StartClient(cl))
	}
	clientSets := [][]netsim.Addr{{"c1", "c2", "c3"}, {"c4", "c5", "c6"}, {"c7", "c8", "c9"}}
	servers := make(map[string]*rtds.Server)
	for i, s := range h.Servers {
		servers[fmt.Sprintf("rtds-%d", i+1)] = rtds.StartServer(s, radar, clientSets[i])
	}
	burst := nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 8, Timeout: time.Second}
	mon := hifi.New(h.Mgmt, burst, 1)
	mon.Database().EnableSketches(sketch.Thresholds{})
	mon.Start()
	c.tr.end(dep)

	pl := c.tr.begin("manager.place")
	seam := &monitorSeam{Monitor: mon, fresh: mon, quant: mon, k: k, tr: c.tr}
	mgr := manager.New(h.Mgmt, seam, manager.Policy{RequireReachable: true, Grace: 2, EvalInterval: time.Second})
	mgr.DefinePool("server", []netsim.Addr{"s1", "s2", "s3", "w-fddi-1", "w-fddi-2", "w-fddi-3"})
	mgr.DefinePool("client", []netsim.Addr{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"})
	for i := 1; i <= 3; i++ {
		if _, err := mgr.Place(fmt.Sprintf("rtds-%d", i), "server"); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= 9; i++ {
		if _, err := mgr.Place(fmt.Sprintf("client-%d", i), "client"); err != nil {
			return nil, err
		}
	}
	detect := time.Duration(-1)
	mgr.OnReconfig = func(r manager.Reconfig) {
		c.tr.count("manager.on_reconfig")
		if detect < 0 {
			detect = r.At - failAt
		}
		if old, ok := servers[r.Process]; ok {
			old.Stop()
			idx := int(r.Process[len(r.Process)-1] - '1')
			servers[r.Process] = rtds.StartServer(h.Net.Node(r.To), radar, clientSets[idx])
		}
	}
	mgr.Start("server", "client")
	c.tr.end(pl)

	// Fault, and the recovery watch: from the fault on, a 100 ms harness
	// tick waits for the picture to go stale somewhere and then for all
	// nine clients to be fresh again.
	recovery := time.Duration(-1)
	k.At(failAt, func() {
		h.Net.Node("s2").SetUp(false)
		wentStale := false
		var tick sim.Timer
		tick = k.Every(100*time.Millisecond, func() {
			fresh := 0
			for _, cl := range clients {
				if cl.Staleness(k.Now()) < 500*time.Millisecond {
					fresh++
				}
			}
			if fresh < len(clients) {
				wentStale = true
			} else if wentStale {
				recovery = k.Now() - failAt
				tick.Stop()
			}
		})
	})

	// The manager names paths by placement, and a failover renames the
	// moved process's paths: the series are those before plus those after.
	series := pairsOf(mgr.PathList("server", "client"), mgr.Metrics)
	return &job{
		horizon: horizon,
		run:     k.RunUntil,
		flush:   func() error { return nil },
		close:   k.Close,
		collect: func(r *result, events int) {
			r.c["sim.events"] = float64(events)
			seen := make(map[pair]bool)
			for _, s := range series {
				seen[s] = true
			}
			for _, s := range pairsOf(mgr.PathList("server", "client"), mgr.Metrics) {
				if !seen[s] {
					series = append(series, s)
				}
			}
			dbTotals(r, mon.Database(), series)
			netTotals(r, h.Net)
			r.attempts = mon.Database().Records
			r.c["hifi.sweeps"] = float64(mon.Sweeps)
			r.c["hifi.sweep_virtual_s"] = mon.SweepTime.Seconds()
			r.c["hifi.skipped_paths"] = float64(mon.SkippedPaths)
			r.c["manager.queries"] = float64(seam.queries)
			r.c["_core.fresh_reads"] = float64(seam.queries)
			r.c["manager.reconfigs"] = float64(len(mgr.Reconfigs))
			r.c["manager.stale_reads"] = float64(mgr.StaleReads)
			r.c["rtds.recovery_virtual_s"] = recovery.Seconds()
			eng := 0
			for _, cl := range clients {
				eng += len(cl.Engagements)
			}
			r.c["rtds.engagements"] = float64(eng)
			finishOutcome(r, seam.acted, detect, float64(mon.TrafficBytes))
			r.digest += fmt.Sprintf(" reconfigs=%d recovery=%d eng=%d", len(mgr.Reconfigs), recovery, eng)
		},
	}, nil
}

// cotsFleetPoll is the paper's §5.2 station: one SNMP director polling a
// 96-agent fleet every second across a routed backbone, with sketches and
// the results seam on, cross traffic on every LAN, and one host that dies
// and comes back.
func cotsFleetPoll(c *ctx) (*job, error) {
	const (
		lans     = 8
		perLAN   = 12
		killAt   = 30 * time.Second
		restore  = 90 * time.Second
		detectBy = killAt + 15*time.Second // inside the 64-sample history
	)
	horizon := c.pickD(600*time.Second, 50*time.Second)

	k := sim.NewKernel()
	tb := c.tr.begin("topo.build")
	s := topo.BuildScaled(k, c.seed, lans, perLAN)
	c.tr.end(tb)

	dep := c.tr.begin("monitor.deploy")
	mon := cots.New(s.Mgmt, "public", time.Second)
	mon.Database().EnableSketches(sketch.Thresholds{})
	sink, stream := c.newResults("cots-fleet-poll", 1)
	mon.Database().EnableResults(sink, 0)
	if c.telemetry {
		mon.EnableTelemetry(telemetry.NewRegistry(), telemetry.NewTracer("cots", 2048))
	}
	var paths []core.Path
	for i, from := range s.Hosts {
		to := s.Hosts[(i+perLAN)%len(s.Hosts)] // same slot, next LAN
		paths = append(paths, core.NewPath(core.ProcessRef{Host: from.Name}, core.ProcessRef{Host: to.Name}))
	}
	mets := []metrics.Metric{metrics.Throughput, metrics.Reachability, metrics.OneWayLatency}
	mon.Submit(core.Request{Paths: paths, Metrics: mets})
	for lan := 0; lan < lans; lan++ {
		src := s.Hosts[lan*perLAN]
		dst := s.Hosts[((lan+1)%lans)*perLAN+1]
		netsim.NewSink(dst, 9000)
		(&netsim.CBRSource{Src: src, Dst: dst.Name, DstPort: 9000, Size: 1024,
			Interval: 20 * time.Millisecond, Jitter: 0.1, Seed: c.seed + int64(lan)}).Run()
	}
	mon.Start()
	c.tr.end(dep)

	victim := s.Hosts[perLAN+2]
	victimPath := paths[2].ID // h1-3 -> h2-3
	chaos.NewSchedule(s.Net).Kill(victim.Name, killAt).Restore(victim.Name, restore)
	detect := time.Duration(-1)
	k.At(detectBy, func() {
		mon.Database().EachHistory(victimPath, metrics.Reachability, 0, func(m core.Measurement) bool {
			if detect < 0 && m.TakenAt > killAt && !m.Reached() {
				detect = m.TakenAt - killAt
			}
			return true
		})
	})
	// The reader stands in for a manager: once a second it reads every
	// path's reachability, as a console would.
	var acted ages
	reads := 0
	reader := k.Every(time.Second, func() {
		for _, p := range paths {
			reads++
			if m, ok := mon.Query(p.ID, metrics.Reachability); ok {
				acted.add(k.Now(), m)
			}
		}
	})

	series := pairsOf(paths, mets)
	return &job{
		horizon: horizon,
		run:     k.RunUntil,
		flush:   mon.Database().FlushResults,
		close:   func() { reader.Stop(); k.Close() },
		stream:  stream,
		collect: func(r *result, events int) {
			r.c["sim.events"] = float64(events)
			dbTotals(r, mon.Database(), series)
			netTotals(r, s.Net)
			sinkTotals(r, sink)
			r.attempts = mon.Database().Records
			r.c["_core.fresh_reads"] = float64(reads)
			cotsTotals(r, mon)
			finishOutcome(r, acted, detect, float64(mon.Client.Stats.BytesSent+mon.Client.Stats.BytesRecv))
		},
	}, nil
}

// cotsTotals folds one cots director's protocol counters into r.
func cotsTotals(r *result, mon *cots.Monitor) {
	st := mon.Client.Stats
	r.c["snmp.requests"] += float64(st.Requests)
	r.c["snmp.retries"] += float64(st.Retries)
	r.c["snmp.timeouts"] += float64(st.Timeouts)
	r.c["_snmp.responses"] += float64(st.Responses)
	r.c["snmp.wire_bytes"] += float64(st.BytesSent + st.BytesRecv)
	if ts := mon.TrapSink(); ts != nil {
		r.c["snmp.trapsink_dropped"] += float64(ts.Stats.Dropped)
	}
	r.c["cots.sweeps"] += float64(mon.Sweeps)
	r.c["cots.fast_failed_polls"] += float64(mon.RStats.FastFailedPolls)
	r.c["cots.shed_sweeps"] += float64(mon.RStats.ShedSweeps)
}

// trapStormTree is E16's shape scaled up through public calls only: a root
// director over eight leaf directors (cots members, shared agent registry)
// under a sustained trap storm with periodic surges and direction flips, a
// genuine alarm on the calm LAN, a freshness-gated reader, and a leaf that
// dies and is adopted.
func trapStormTree(c *ctx) (*job, error) {
	const (
		lans      = 8
		perLeaf   = 3
		killAt    = 20 * time.Second
		restoreAt = 40 * time.Second
		signalAt  = 12500 * time.Millisecond // mid-surge on the odd LANs
	)
	horizon := c.pickD(250*time.Second, 25*time.Second)
	cfg := director.Config{
		QueueCap:       256,
		TrapProcTime:   2 * time.Millisecond,
		CoalesceWindow: 200 * time.Millisecond,
		Reexport:       250 * time.Millisecond,
		AdoptAfter:     time.Second,
		TTL:            2 * time.Second,
	}

	k := sim.NewKernel()
	tb := c.tr.begin("topo.build")
	s := topo.BuildScaled(k, 30+c.seed, lans, 3)
	c.tr.end(tb)

	dep := c.tr.begin("monitor.deploy")
	reg := cots.NewAgentRegistry()
	sink, stream := c.newResults("trap-storm-tree", 1)
	root := director.New(s.Mgmt, "root", cfg)
	var leaves []*director.Director
	var members []*cots.Monitor
	var paths []core.Path
	for i := 0; i < lans; i++ {
		m := cots.New(s.Hosts[i*3], "public", 500*time.Millisecond)
		m.Database().EnableSketches(sketch.Thresholds{})
		m.UseRegistry(reg)
		l := director.NewLeaf(s.Hosts[i*3], fmt.Sprintf("leaf%d", i), m, cfg)
		l.EnableResults(sink)
		root.AddChild(l)
		leaves = append(leaves, l)
		members = append(members, m)
		paths = append(paths, core.NewPath(
			core.ProcessRef{Host: s.Hosts[i*3+1].Name}, core.ProcessRef{Host: s.Hosts[i*3+2].Name}))
	}
	mets := []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}
	root.Submit(core.Request{Paths: paths, Metrics: mets})
	c.tr.end(dep)

	// Storm sources: 100 traps/s each, 333/s on odd LANs for 5 s in every
	// 10, and a falling edge through every 5th second so coalescing runs
	// are flushed by direction changes as well as by window expiry. The
	// seed picks the alarm values only: which trap overflows a queue
	// depends on how the sources' phases interleave, and a benchmark whose
	// amount of work moved with the seed could not tell a regression from
	// a lucky draw.
	values := rand.New(rand.NewSource(c.seed))
	offered := uint64(0)
	for lan := 0; lan < lans; lan++ {
		for n := 0; n < perLeaf; n++ {
			lan, target, path := lan, leaves[lan], paths[lan].ID
			name := fmt.Sprintf("probe%d.%d", lan, n)
			start := time.Duration(n) * 3300 * time.Microsecond
			s.Mgmt.Spawn("src-"+name, func(p *sim.Proc) {
				p.Sleep(start)
				for {
					sec := int(p.Now() / time.Second)
					offered++
					target.OfferTrap(director.Trap{Source: name, Path: path,
						Rising: sec%5 != 4, Value: values.Float64(), Count: 1, At: p.Now()})
					period := 10 * time.Millisecond
					if lan%2 == 1 && sec%10 >= 5 {
						period = 3 * time.Millisecond
					}
					p.Sleep(period)
				}
			})
		}
	}
	detect := time.Duration(-1)
	root.OnTrap = func(tr director.Trap) {
		c.tr.count("director.on_trap")
		if tr.Source == "victim" && detect < 0 {
			detect = k.Now() - signalAt
		}
	}
	s.Mgmt.Spawn("victim", func(p *sim.Proc) {
		p.Sleep(signalAt)
		for {
			offered++
			leaves[0].OfferTrap(director.Trap{Source: "victim", Path: paths[0].ID,
				Rising: true, Count: 1, At: p.Now()})
			p.Sleep(151 * time.Millisecond)
		}
	})
	var acted ages
	reads, misses := uint64(0), uint64(0)
	s.Mgmt.Spawn("reader", func(p *sim.Proc) {
		for {
			p.Sleep(250 * time.Millisecond)
			for _, path := range paths {
				reads++
				sp := c.tr.begin("director.query_fresh")
				m, ok := root.QueryFresh(path.ID, metrics.Reachability, p.Now(), cfg.TTL)
				c.tr.end(sp)
				if ok {
					acted.add(p.Now(), m)
				} else {
					misses++
				}
			}
		}
	})
	chaos.NewSchedule(s.Net).Kill(leaves[1].Host.Name, killAt).Restore(leaves[1].Host.Name, restoreAt)
	st := c.tr.begin("manager.place")
	root.Start()
	c.tr.end(st)

	series := pairsOf(paths, mets)
	return &job{
		horizon: horizon,
		run:     k.RunUntil,
		flush:   func() error { return nil },
		close:   func() { root.Stop(); k.Close() },
		stream:  stream,
		collect: func(r *result, events int) {
			r.c["sim.events"] = float64(events)
			netTotals(r, s.Net)
			sinkTotals(r, sink)
			var overhead float64
			for _, m := range members {
				dbTotals(r, m.Database(), series)
				cotsTotals(r, m)
				overhead += float64(m.Client.Stats.BytesSent + m.Client.Stats.BytesRecv)
			}
			dbTotals(r, root.Database(), nil)
			var sum director.Stats
			for _, d := range append([]*director.Director{root}, leaves...) {
				sum.TrapsDropped += d.Stats.TrapsDropped
				sum.TrapsLost += d.Stats.TrapsLost
				sum.TrapsProcessed += d.Stats.TrapsProcessed
				sum.TrapsForwarded += d.Stats.TrapsForwarded
				sum.Reexports += d.Stats.Reexports
				sum.BatchesDropped += d.Stats.BatchesDropped
			}
			for _, l := range leaves {
				sum.TrapsIn += l.Stats.TrapsIn
			}
			r.attempts = offered + reads
			r.c["director.traps_in"] = float64(sum.TrapsIn)
			r.c["director.traps_dropped"] = float64(sum.TrapsDropped)
			r.c["_director.traps_lost"] = float64(sum.TrapsLost)
			r.c["director.traps_processed"] = float64(sum.TrapsProcessed)
			r.c["director.traps_forwarded"] = float64(sum.TrapsForwarded)
			r.c["director.traps_delivered"] = float64(root.Stats.TrapsDelivered)
			r.c["director.coalesced"] = float64(root.CoalescedTotal())
			r.c["director.reexports"] = float64(sum.Reexports)
			r.c["director.records_in"] = float64(root.Stats.RecordsIn)
			r.c["director.batches_dropped"] = float64(sum.BatchesDropped)
			r.c["director.adoptions"] = float64(root.Stats.Adoptions)
			r.c["director.reclaims"] = float64(root.Stats.Reclaims)
			finishOutcome(r, acted, detect, overhead)
			r.digest += fmt.Sprintf(" misses=%d root=%+v leaves=%+v", misses, root.Stats, sum)
		},
	}, nil
}

// wanFederation2Shard is the only workload on the sharded kernel: 16
// regions over a full WAN mesh split across two shards, one cots director
// per region federated behind a ShardedMonitor, every monitored path
// crossing a region (and, for half of them, a shard) boundary.
func wanFederation2Shard(c *ctx) (*job, error) {
	const failAt = 5 * time.Second
	shards := c.shards
	if shards == 0 {
		shards = 2
	}
	regions := c.pickN(16, 4)
	clientsPer := c.pickN(8, 2)
	horizon := c.pickD(700*time.Second, 40*time.Second)

	g := sim.NewShardGroup(shards, topo.WANPropDelay)
	tb := c.tr.begin("topo.build")
	s := topo.BuildShardedScaled(g, 13+c.seed, regions, 1, clientsPer)
	c.tr.end(tb)

	dep := c.tr.begin("monitor.deploy")
	// Per-region drifting clocks, a function of the topology only (as E14).
	for i, r := range s.Regions {
		clk := &vclock.Clock{Offset: time.Duration(i+1) * time.Millisecond, Drift: float64(i+1) * 20e-6}
		for _, n := range append(append([]*netsim.Node{}, r.Servers...), r.Clients...) {
			n.LocalClock = clk
		}
	}
	reg := cots.NewAgentRegistry()
	nodeByName := make(map[netsim.Addr]*netsim.Node)
	regionOf := make(map[netsim.Addr]int)
	for i, r := range s.Regions {
		for _, n := range r.Net.Nodes() {
			nodeByName[n.Name] = n
			regionOf[n.Name] = i
		}
	}
	dirs := make([]*cots.Monitor, regions)
	members := make([]core.Monitor, regions)
	for i, r := range s.Regions {
		m := cots.New(r.Mgmt, "public", time.Second)
		m.Database().EnableSketches(sketch.Thresholds{})
		m.UseRegistry(reg)
		dirs[i], members[i] = m, m
	}
	paths := s.CrossRegionPaths()
	owned := make([][]core.Path, regions)
	for _, p := range paths {
		owner := regionOf[p.Hops[0].Host]
		owned[owner] = append(owned[owner], p)
		for _, hop := range p.Hops {
			dirs[owner].EnsureAgentOn(nodeByName[hop.Host])
		}
	}
	sm := core.NewShardedMonitor(func(p core.Path) int { return regionOf[p.Hops[0].Host] }, members...)
	mets := []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}
	sm.Submit(core.Request{Paths: paths, Metrics: mets})
	for _, m := range dirs {
		m.Start()
	}
	c.tr.end(dep)

	// Region 2's first client dies; its path is owned by region 1, whose
	// kernel runs both the detection probe and that region's reader.
	victim := s.Regions[1].Clients[0]
	s.Regions[1].Net.K.At(failAt, func() { victim.SetUp(false) })
	var victimPath core.PathID
	for _, p := range owned[0] {
		if p.Hops[len(p.Hops)-1].Host == victim.Name {
			victimPath = p.ID
		}
	}
	detect := time.Duration(-1)
	s.Regions[0].Net.K.At(failAt+30*time.Second, func() {
		dirs[0].Database().EachHistory(victimPath, metrics.Reachability, 0, func(m core.Measurement) bool {
			if detect < 0 && m.TakenAt > failAt && !m.Reached() {
				detect = m.TakenAt - failAt
			}
			return true
		})
	})
	// One reader per region, on the region's own kernel (shards share
	// nothing while running); their ages are merged after the run.
	acted := make([]ages, regions)
	reads := make([]int, regions)
	var readers []sim.Timer
	for i, r := range s.Regions {
		i, k := i, r.Net.K
		readers = append(readers, k.Every(time.Second, func() {
			for _, p := range owned[i] {
				reads[i]++
				if m, ok := dirs[i].Query(p.ID, metrics.Reachability); ok {
					acted[i].add(k.Now(), m)
				}
			}
		}))
	}

	return &job{
		horizon: horizon,
		run:     g.RunUntil,
		flush:   func() error { return nil },
		close: func() {
			for _, t := range readers {
				t.Stop()
			}
			g.Close()
		},
		collect: func(r *result, events int) {
			r.c["sim.events"] = float64(events)
			r.c["sim.shard_windows"] = float64(g.Windows())
			r.c["sim.shard_xmsgs"] = float64(g.CrossShardMessages())
			var all ages
			var overhead float64
			for i, m := range dirs {
				dbTotals(r, m.Database(), pairsOf(owned[i], mets))
				netTotals(r, s.Regions[i].Net)
				cotsTotals(r, m)
				overhead += float64(m.Client.Stats.BytesSent + m.Client.Stats.BytesRecv)
				all = append(all, acted[i]...)
				r.c["_core.fresh_reads"] += float64(reads[i])
			}
			r.attempts = r.samples
			finishOutcome(r, all, detect, overhead)
		},
	}, nil
}
