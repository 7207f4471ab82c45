package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/director"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topo"
)

// e16Lans is the scaled topology size: one leaf director per LAN, one
// monitored path per LAN, three hosts per LAN.
const e16Lans = 4

// e16Tree is one assembled monitoring hierarchy: flat (one director owns
// everything, the §5.2 station) or a 2-level tree (root + per-LAN leaves).
type e16Tree struct {
	h      *topo.Scaled
	root   *director.Director
	leaves []*director.Director
	paths  []core.Path
}

// e16Build assembles the hierarchy over a scaled 4-LAN topology. Both
// shapes run identical COTS members, identical per-director budgets and
// monitor identical paths — the only variable is where the trap load
// lands.
func e16Build(k *sim.Kernel, flat bool, cfg director.Config) *e16Tree {
	t := &e16Tree{h: topo.BuildScaled(k, 31, e16Lans, 3)}
	reg := cots.NewAgentRegistry()
	member := func(host *netsim.Node) *cots.Monitor {
		m := cots.New(host, "public", 500*time.Millisecond)
		m.Database().EnableSketches(sketch.Thresholds{})
		m.UseRegistry(reg)
		return m
	}
	if flat {
		t.root = director.NewLeaf(t.h.Mgmt, "flat", member(t.h.Mgmt), cfg)
		t.leaves = []*director.Director{t.root}
	} else {
		t.root = director.New(t.h.Mgmt, "root", cfg)
		for i := 0; i < e16Lans; i++ {
			l := director.NewLeaf(t.h.Hosts[i*3], fmt.Sprintf("leaf%d", i),
				member(t.h.Hosts[i*3]), cfg)
			t.root.AddChild(l)
			t.leaves = append(t.leaves, l)
		}
	}
	for i := 0; i < e16Lans; i++ {
		t.paths = append(t.paths, core.NewPath(
			core.ProcessRef{Host: t.h.Hosts[i*3+1].Name},
			core.ProcessRef{Host: t.h.Hosts[i*3+2].Name}))
	}
	t.root.Submit(core.Request{Paths: t.paths,
		Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	return t
}

// e16Config is the director budget every E16 run starts from.
var e16Config = director.Config{
	QueueCap:       256,
	TrapProcTime:   2 * time.Millisecond, // ~500 traps/s per director
	CoalesceWindow: 200 * time.Millisecond,
	Reexport:       250 * time.Millisecond,
	TTL:            2 * time.Second,
}

// e16Stats is one scenario's outcome row.
type e16Stats struct {
	TrapsIn, Dropped, Delivered, Coalesced uint64
	Detect                                 time.Duration // victim-signal latency; -1 = never seen
	FreshReads, StaleActed                 int
	Adoptions, Reclaims                    uint64
	OrphanRecover                          time.Duration // kill -> orphan shard fresh again; -1 = never
	RegionP95                              float64
}

// read spawns the resource manager's stand-in: every 250ms it acts on
// every path it can read through the root's freshness gate, and counts
// into st the fresh reads and any acted-on sample that was in fact
// senescent (must stay zero). onFresh, when set, sees every fresh read.
func (t *e16Tree) read(ttl time.Duration, st *e16Stats, onFresh func(now time.Duration, path core.PathID, m core.Measurement)) {
	t.h.Mgmt.Spawn("e16-reader", func(p *sim.Proc) {
		for {
			p.Sleep(250 * time.Millisecond)
			for _, path := range t.paths {
				m, ok := t.root.QueryFresh(path.ID, metrics.Reachability, p.Now(), ttl)
				if !ok {
					continue
				}
				st.FreshReads++
				if p.Now()-m.TakenAt > ttl {
					st.StaleActed++
				}
				if onFresh != nil {
					onFresh(p.Now(), path.ID, m)
				}
			}
		}
	})
}

// tally adds the hierarchy's trap and failover counters to st: traps in
// and dropped at every leaf (and at a tree's root; the flat station is its
// own only leaf), and delivered, coalesced, adopted and reclaimed at the
// root.
func (t *e16Tree) tally(st *e16Stats) {
	for _, l := range t.leaves {
		st.TrapsIn += l.Stats.TrapsIn
		st.Dropped += l.Stats.TrapsDropped
	}
	if t.root != t.leaves[0] {
		st.Dropped += t.root.Stats.TrapsDropped
	}
	st.Delivered = t.root.Stats.TrapsDelivered
	st.Coalesced = t.root.CoalescedTotal()
	st.Adoptions, st.Reclaims = t.root.Stats.Adoptions, t.root.Stats.Reclaims
}

// e16Storm runs the RMON trap storm against one hierarchy shape. Sources
// inject traps at the director ingest boundary (E6 already covers the
// wire-level SNMP trap path): a sustained base storm everywhere, a surge
// on the sources of every LAN but the first, and — mid-surge — a single
// genuine "victim" alarm on LAN 0 whose delivery latency to the top is
// the detection-latency figure.
func e16Storm(quick, flat bool) e16Stats {
	k := newKernel()
	defer k.Close()
	cfg := e16Config
	if flat {
		cfg.CoalesceWindow = 0 // the flat station processes every trap individually
	}
	t := e16Build(k, flat, cfg)

	stormFrom := 2 * time.Second
	stormTo := pick(quick, 6*time.Second, 10*time.Second)
	surgeFrom := pick(quick, 4*time.Second, 6*time.Second)
	surgeTo := pick(quick, 5*time.Second, 8*time.Second)
	surgePeriod := pick(quick, 3*time.Millisecond, 4*time.Millisecond)
	signalAt := pick(quick, 4500*time.Millisecond, 7*time.Second)
	horizon := pick(quick, 8*time.Second, 12*time.Second)
	perLeaf := pick(quick, 2, 3)

	// source spawns a probe that repeats the same rising alarm on path to
	// target from from until the storm ends, sleeping period(now) between
	// traps.
	source := func(name string, target *director.Director, path core.PathID, from time.Duration, period func(now time.Duration) time.Duration) {
		t.h.Mgmt.Spawn("e16-src-"+name, func(p *sim.Proc) {
			p.Sleep(from)
			for p.Now() < stormTo {
				target.OfferTrap(director.Trap{
					Source: name, Path: path, Rising: true, Count: 1, At: p.Now()})
				p.Sleep(period(p.Now()))
			}
		})
	}

	// Storm sources: perLeaf RMON probes per LAN. In the flat shape every
	// source lands on the single station; in the tree each lands on its
	// LAN's leaf.
	for lan := 0; lan < e16Lans; lan++ {
		for s := 0; s < perLeaf; s++ {
			target := t.leaves[0]
			if !flat {
				target = t.leaves[lan]
			}
			source(fmt.Sprintf("probe%d.%d", lan, s), target, t.paths[lan].ID, stormFrom, func(now time.Duration) time.Duration {
				if lan > 0 && now >= surgeFrom && now < surgeTo {
					return surgePeriod
				}
				return 10 * time.Millisecond
			})
		}
	}

	// The victim signal: a real fault on LAN 0, raised mid-surge and
	// re-raised until the storm ends (a console that misses the first
	// delivery still gets later chances — detection is first arrival).
	st := e16Stats{Detect: -1, OrphanRecover: -1}
	t.root.OnTrap = func(tr director.Trap) {
		if tr.Source == "victim" && st.Detect < 0 {
			st.Detect = k.Now() - signalAt
		}
	}
	source("victim", t.leaves[0], t.paths[0].ID, signalAt, func(time.Duration) time.Duration { return 151 * time.Millisecond })

	t.read(cfg.TTL, &st, nil)
	t.root.Start()
	k.RunUntil(horizon)

	t.tally(&st)
	if agg, ok := t.root.AggregateSketch(metrics.OneWayLatency); ok {
		st.RegionP95 = agg.Quantile(0.95)
	}
	return st
}

// e16Drill runs the leaf-director kill drill on the tree (no storm): one
// leaf host dies, its sibling adopts the orphaned shard out of the shared
// agent registry, the root's data for the shard goes stale and then fresh
// again — and on restore the home leaf reclaims it.
func e16Drill(quick bool) e16Stats {
	k := newKernel()
	defer k.Close()
	cfg := e16Config
	cfg.AdoptAfter = time.Second
	cfg.TTL = time.Second // tight, so the staleness window is visible
	t := e16Build(k, false, cfg)

	killAt := 3 * time.Second
	restoreAt := pick(quick, 7*time.Second, 8*time.Second)
	horizon := pick(quick, 10*time.Second, 12*time.Second)
	orphan := t.leaves[1]
	s := chaos.NewSchedule(t.h.Net)
	s.Kill(orphan.Host.Name, killAt)
	s.Restore(orphan.Host.Name, restoreAt)

	// The reader watches the orphaned shard's path through the root: when
	// does it next read fresh after the kill?
	orphanPath := t.paths[1].ID
	st := e16Stats{Detect: -1, OrphanRecover: -1}
	t.read(cfg.TTL, &st, func(now time.Duration, path core.PathID, m core.Measurement) {
		if path == orphanPath && now > killAt && st.OrphanRecover < 0 && m.TakenAt > killAt {
			st.OrphanRecover = now - killAt
		}
	})

	t.root.Start()
	k.RunUntil(horizon)
	t.tally(&st)
	return st
}

// E16 compares the flat single-director station with a 2-level director
// tree under the same RMON trap storm, then drills leaf-director failover:
// the flat station's bounded queue drops traps and the genuine alarm
// queues behind the storm, while the tree absorbs the storm at its leaves
// (coalescing windows, accounted drops at the surged shards only) and
// delivers the alarm at interactive latency; killing a leaf moves its
// shard to a sibling with staleness surfaced, never masked.
func E16(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E16",
		Title: "Hierarchical director tree vs flat station under trap storm",
		Paper: "directors may be layered into a hierarchy; each director monitors its domain and exports summaries upward",
		Columns: []string{"scenario", "traps in", "dropped", "delivered", "coalesced",
			"signal detect", "fresh reads", "stale acted", "adopt/reclaim", "orphan recover"},
	}
	dur := func(d time.Duration) report.Cell {
		if d < 0 {
			return report.Cell{Text: "-"}
		}
		return report.Dur(d)
	}
	row := func(name string, st e16Stats, drill bool) {
		ar := "-"
		recover := report.Cell{Text: "-"}
		if drill {
			ar = fmt.Sprintf("%d/%d", st.Adoptions, st.Reclaims)
			recover = dur(st.OrphanRecover)
		}
		t.AddRow(name, report.Count(st.TrapsIn), report.Count(st.Dropped),
			report.Count(st.Delivered), report.Count(st.Coalesced),
			dur(st.Detect), report.Count(uint64(st.FreshReads)),
			report.Count(uint64(st.StaleActed)), ar, recover)
	}
	flat := e16Storm(quick, true)
	tree := e16Storm(quick, false)
	drill := e16Drill(quick)
	row("flat station", flat, false)
	row("2-level tree", tree, false)
	row("tree, leaf kill drill", drill, true)
	t.AddNote("storm: %d RMON sources at 100 traps/s each against 500 traps/s of director capacity, with a mid-storm surge on LANs 2-4; the genuine alarm rises on calm LAN 1", pick(quick, 2, 3)*e16Lans)
	t.AddNote("storm injected at the director ingest boundary; E6 measures the wire-level SNMP trap path")
	t.AddNote("flat: one station takes the full storm, drops traps at its bounded queue and sits on the alarm; tree: leaves absorb their own shard's load (drops stay local to surged LANs), coalesce repeats, and the alarm crosses two levels in milliseconds")
	t.AddNote("region latency sketch at root: flat p95 %.1fms, tree p95 %.1fms (leaf sketches merged upward)", flat.RegionP95*1e3, tree.RegionP95*1e3)
	t.AddNote("kill drill: leaf 2's host dies at 3s and its shard is adopted by a sibling from the shared agent registry; staleness is surfaced until the adopter's data lands, then the revived leaf reclaims its home shard")
	return t
}
