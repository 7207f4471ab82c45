package director

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// Member is the concrete monitor a leaf director drives: anything built on
// core.DirectorBase (cots, hifi, hybrid) qualifies. The leaf re-exports
// from its database and shards the monitoring request into it.
type Member interface {
	core.Monitor
	Start()
	Database() *core.Database
}

// Config tunes one director. The zero value gets workable defaults; every
// director of a tree may be configured independently, but experiments
// usually share one Config so levels are comparable.
type Config struct {
	// QueueCap bounds the trap and record ingest queues (default 64). When
	// a queue is full, arrivals are dropped and accounted — never blocked.
	QueueCap int
	// TrapProcTime is the per-trap handling cost (default 2ms — the §5.2
	// station's observed ceiling of ~500 traps/s).
	TrapProcTime time.Duration
	// RecordProcTime is the per-record ingest cost of a summary batch
	// (default 50µs).
	RecordProcTime time.Duration
	// CoalesceWindow is the base dedup window; 0 disables coalescing
	// (the flat-station model). Backpressure widens it up to 4×.
	CoalesceWindow time.Duration
	// FlushEvery is the cadence of the window-expiry sweep (default 50ms).
	FlushEvery time.Duration
	// Reexport is the base upward re-export interval (default 250ms);
	// backpressure stretches it along a resilience backoff schedule up to
	// MaxReexport (default 8× Reexport).
	Reexport    time.Duration
	MaxReexport time.Duration
	// Supervise is the supervisor cadence: watermark checks, child
	// liveness, adoption (default 250ms).
	Supervise time.Duration
	// AdoptAfter is how long a child may be silent before its shard is
	// adopted by a sibling (default 1s). Re-export batches double as
	// heartbeats.
	AdoptAfter time.Duration
	// TTL and WatchdogEvery drive the senescence watchdog on the local
	// database (defaults 2s and 250ms): records that stop flowing go
	// stale instead of being served as current.
	TTL           time.Duration
	WatchdogEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.TrapProcTime <= 0 {
		c.TrapProcTime = 2 * time.Millisecond
	}
	if c.RecordProcTime <= 0 {
		c.RecordProcTime = 50 * time.Microsecond
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 50 * time.Millisecond
	}
	if c.Reexport <= 0 {
		c.Reexport = 250 * time.Millisecond
	}
	if c.MaxReexport <= 0 {
		c.MaxReexport = 8 * c.Reexport
	}
	if c.Supervise <= 0 {
		c.Supervise = 250 * time.Millisecond
	}
	if c.AdoptAfter <= 0 {
		c.AdoptAfter = time.Second
	}
	if c.TTL <= 0 {
		c.TTL = 2 * time.Second
	}
	if c.WatchdogEvery <= 0 {
		c.WatchdogEvery = 250 * time.Millisecond
	}
	return c
}

// Stats is one director's overload/robustness ledger.
type Stats struct {
	// TrapsIn counts traps offered while the director was alive,
	// including ones the full queue then dropped.
	TrapsIn uint64
	// TrapsDropped counts traps tail-dropped at the full ingest queue.
	TrapsDropped uint64
	// TrapsLost counts traps offered while the director was down.
	TrapsLost uint64
	// TrapsProcessed counts traps taken off the queue and handled.
	TrapsProcessed uint64
	// TrapsForwarded counts traps sent up to the parent.
	TrapsForwarded uint64
	// TrapsDelivered counts traps surfaced at the root (OnTrap).
	TrapsDelivered uint64
	// BatchesIn / RecordsIn count accepted summary batches and the
	// records they carried; the Dropped pair counts whole batches lost at
	// the full record queue.
	BatchesIn      uint64
	RecordsIn      uint64
	BatchesDropped uint64
	RecordsDropped uint64
	// Reexports counts upward summary batches sent.
	Reexports uint64
	// Stretches counts backpressure escalations (high-water crossings);
	// Adoptions and Reclaims count failover events.
	Stretches uint64
	Adoptions uint64
	Reclaims  uint64
}

// batch is one upward re-export: the child's current view of its assigned
// (path, metric) pairs plus one merged region sketch per metric. An empty
// batch is still a heartbeat.
type batch struct {
	from *Director
	at   time.Duration
	meas []core.Measurement
	sks  []regionSketch
}

type regionSketch struct {
	metric metrics.Metric
	sk     *sketch.Sketch
}

// Director is one node of the tree. A director with a Member is a leaf; a
// director with children is interior; the top of the tree (nil parent)
// serves the resource manager. A director with a Member and no parent is
// the flat single-station topology of §5.2, kept expressible so E16 can
// compare both shapes under identical load.
type Director struct {
	core.DirectorBase
	Name string
	Host *netsim.Node
	Cfg  Config

	// OnTrap, when set on the top director, receives every trap that
	// survives to the top — the "operator console" for detection-latency
	// measurement.
	OnTrap func(t Trap)

	// Stats is the robustness ledger; Events logs failover transitions in
	// virtual-time order.
	Stats  Stats
	Events []string

	k        *sim.Kernel
	parent   *Director
	children []*Director
	member   Member

	trapQ *sim.Queue[Trap]
	recQ  *sim.Queue[batch]
	co    *Coalescer

	assigned []core.Path
	home     []core.Path
	metricsL []metrics.Metric

	lastHeard   []time.Duration
	childDead   []bool
	childSketch [][]regionSketch

	level   int // backpressure level: own high-water crossings
	stretch int // stretch level imposed by the parent
	backoff *resilience.Backoff

	timers  []sim.Timer
	started bool

	resSink core.BatchSink // durable results seam; nil = disabled
	resName string         // the sink's batch name, "reexport/<Name>"
	resVals []float64      // one metric's values, reused: a sink keeps none past the call
}

var _ core.Monitor = (*Director)(nil)

// New builds an interior (or root) director on host.
func New(host *netsim.Node, name string, cfg Config) *Director {
	return build(host, name, nil, cfg)
}

// NewLeaf builds a leaf director on host driving member.
func NewLeaf(host *netsim.Node, name string, member Member, cfg Config) *Director {
	return build(host, name, member, cfg)
}

func build(host *netsim.Node, name string, member Member, cfg Config) *Director {
	cfg = cfg.withDefaults()
	k := host.Network().K
	d := &Director{
		DirectorBase: core.NewDirectorBase(k),
		Name:         name,
		Host:         host,
		Cfg:          cfg,
		k:            k,
		member:       member,
		trapQ:        sim.NewQueue[Trap](k, cfg.QueueCap),
		recQ:         sim.NewQueue[batch](k, cfg.QueueCap),
		co:           NewCoalescer(cfg.CoalesceWindow),
		backoff:      resilience.NewBackoff(nil, cfg.Reexport, cfg.MaxReexport, 0),
	}
	return d
}

// AddChild attaches a child director beneath d.
func (d *Director) AddChild(c *Director) {
	c.parent = d
	d.children = append(d.children, c)
	d.lastHeard = append(d.lastHeard, 0)
	d.childDead = append(d.childDead, false)
	d.childSketch = append(d.childSketch, nil)
}

// Leaves returns the leaf directors of d's subtree in tree order.
func (d *Director) Leaves() []*Director {
	if d.member != nil {
		return []*Director{d}
	}
	var out []*Director
	for _, c := range d.children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Submit installs the monitoring request (Monitor interface), sharding the
// path list across the subtree's leaves round-robin and pushing each share
// into the leaf's member monitor. Interior directors keep the union of
// their descendants' shares, in leaf order, as their re-export set.
func (d *Director) Submit(req core.Request) {
	if req.Mode == core.ReportAsync {
		panic("director: async report mode is not supported across the tree")
	}
	leaves := d.Leaves()
	if len(leaves) == 0 && len(req.Paths) > 0 {
		panic(fmt.Sprintf("director: %s has no leaf to take the %d submitted paths", d.Name, len(req.Paths)))
	}
	shares := make(map[*Director][]core.Path, len(leaves))
	for i, p := range req.Paths {
		l := leaves[i%len(leaves)]
		shares[l] = append(shares[l], p)
	}
	d.applyShares(shares, req.Metrics, true)
}

func (d *Director) applyShares(shares map[*Director][]core.Path, mets []metrics.Metric, home bool) {
	d.metricsL = mets
	if d.member != nil {
		d.assigned = shares[d]
		if home {
			d.home = append(d.home[:0], d.assigned...)
		}
		d.member.Submit(core.Request{Paths: d.assigned, Metrics: mets})
		return
	}
	d.assigned = d.assigned[:0]
	for _, c := range d.children {
		c.applyShares(shares, mets, home)
		d.assigned = append(d.assigned, c.assigned...)
	}
	d.DirectorBase.Submit(core.Request{Paths: d.assigned, Metrics: mets})
}

// Start spawns the subtree's processes: member monitors, trap/record
// ingest, window flusher, re-export (non-top directors), and — on
// directors with children — the supervisor and senescence watchdog.
func (d *Director) Start() {
	if d.started {
		return
	}
	d.started = true
	for _, c := range d.children {
		c.Start()
	}
	if d.member != nil {
		d.member.Start()
	}
	d.Host.Spawn(d.Name+"-traps", d.trapLoop)
	d.timers = append(d.timers, d.k.Every(d.Cfg.FlushEvery, func() {
		if !d.up() {
			return
		}
		d.co.Flush(d.k.Now())
		d.dispatch(d.co.Take())
	}))
	if d.parent != nil {
		d.Host.Spawn(d.Name+"-reexport", d.reexportLoop)
	}
	if len(d.children) > 0 {
		d.Host.Spawn(d.Name+"-ingest", d.ingestLoop)
		d.timers = append(d.timers, d.k.Every(d.Cfg.Supervise, d.supervise))
		d.timers = append(d.timers, d.StartSenescenceWatchdog(d.k, d.Cfg.WatchdogEvery, d.Cfg.TTL))
	}
}

// Stop halts the subtree (Monitor interface): member monitors stop, timers
// are released, and queued work is abandoned.
func (d *Director) Stop() {
	d.DirectorBase.Stop()
	for _, t := range d.timers {
		t.Stop()
	}
	d.timers = nil
	if d.member != nil {
		d.member.Stop()
	}
	for _, c := range d.children {
		c.Stop()
	}
}

func (d *Director) up() bool { return d.Host.Up() && !d.Stopped() }

// OfferTrap feeds one trap into the director's bounded ingest queue. A
// full queue tail-drops with accounting; a dead director loses the trap
// (its sources cannot reach it). Reports whether the trap was accepted.
func (d *Director) OfferTrap(t Trap) bool {
	if !d.up() {
		d.Stats.TrapsLost++
		return false
	}
	d.Stats.TrapsIn++
	if !d.trapQ.Put(t) {
		d.Stats.TrapsDropped++
		return false
	}
	return true
}

// trapLoop drains the trap queue: each trap costs TrapProcTime, then runs
// through the coalescer; surviving traps move up (or surface at the top).
func (d *Director) trapLoop(p *sim.Proc) {
	for !d.Stopped() {
		t, ok := d.trapQ.Get(p, -1)
		if !ok {
			return
		}
		p.Sleep(d.Cfg.TrapProcTime)
		d.Stats.TrapsProcessed++
		d.co.Offer(t, p.Now())
		d.dispatch(d.co.Take())
	}
}

// dispatch moves coalescer output along: up to the parent's bounded queue,
// or out the OnTrap console at the top.
func (d *Director) dispatch(ts []Trap) {
	for _, t := range ts {
		if d.parent != nil {
			d.Stats.TrapsForwarded++
			d.parent.OfferTrap(t)
			continue
		}
		d.Stats.TrapsDelivered++
		if d.OnTrap != nil {
			d.OnTrap(t)
		}
	}
}

// reexportInterval applies the backpressure stretch: the greater of the
// parent-imposed stretch and the local overload level indexes a resilience
// backoff schedule based at Cfg.Reexport and capped at Cfg.MaxReexport.
func (d *Director) reexportInterval() time.Duration {
	lvl := d.stretch
	if d.level > lvl {
		lvl = d.level
	}
	return d.backoff.Delay(lvl)
}

// reexportLoop periodically pushes the director's current view — one
// measurement per assigned (path, metric) pair plus a merged region sketch
// per metric — into the parent's bounded record queue. The batch doubles
// as the liveness heartbeat, so it is sent even when empty; a down host
// sends nothing, which is what the parent's adoption timer watches for.
func (d *Director) reexportLoop(p *sim.Proc) {
	for !d.Stopped() {
		p.Sleep(d.reexportInterval())
		if !d.up() {
			continue
		}
		d.reexport(p.Now())
	}
}

func (d *Director) reexport(now time.Duration) {
	db := d.localDB()
	b := batch{from: d, at: now}
	for _, path := range d.assigned {
		for _, met := range d.metricsL {
			if m, ok := db.Current(path.ID, met); ok {
				b.meas = append(b.meas, m)
			}
		}
	}
	for _, met := range d.metricsL {
		agg := &sketch.Sketch{}
		merged := false
		for _, path := range d.assigned {
			merged = db.MergeSketchInto(agg, path.ID, met) || merged
		}
		if merged {
			b.sks = append(b.sks, regionSketch{metric: met, sk: agg})
		}
	}
	d.Stats.Reexports++
	if d.resSink != nil {
		d.recordReexport(&b)
	}
	d.parent.offerBatch(b)
}

// EnableResults streams every upward re-export batch — one record per
// metric, samples in assigned-path order — to the durable results sink.
// Like the database seam it is purely observational: it consumes no
// simulated time and the batch sent to the parent is unchanged. sink
// content is deterministic because re-exports are driven entirely by
// virtual time.
func (d *Director) EnableResults(sink core.BatchSink) {
	d.resSink, d.resName = sink, "reexport/"+d.Name
}

// recordReexport writes the just-built batch to the results sink, grouped
// per metric so each record's samples share a unit.
func (d *Director) recordReexport(b *batch) {
	for _, met := range d.metricsL {
		vals := d.resVals[:0]
		for _, m := range b.meas {
			if m.Metric == met && m.OK() {
				vals = append(vals, m.Value)
			}
		}
		d.resVals = vals
		if len(vals) == 0 {
			continue
		}
		// Sink errors are sticky in the writer; re-export must never fail.
		_ = d.resSink.WriteBatch(d.resName, met.String(), met.Unit(), int64(b.at), vals)
	}
}

// localDB is the database the director re-exports from and answers
// queries out of: the member's on a leaf, its own when interior.
func (d *Director) localDB() *core.Database {
	if d.member != nil {
		return d.member.Database()
	}
	return d.DB
}

// offerBatch receives a child's re-export into the bounded record queue,
// tail-dropping whole batches with accounting when full.
func (d *Director) offerBatch(b batch) {
	if !d.up() {
		return
	}
	if !d.recQ.Put(b) {
		d.Stats.BatchesDropped++
		d.Stats.RecordsDropped += uint64(len(b.meas))
	}
}

// ingestLoop drains children's summary batches into the local database,
// charging RecordProcTime per record, refreshing the child's heartbeat,
// and keeping its latest region sketches for aggregation.
func (d *Director) ingestLoop(p *sim.Proc) {
	for !d.Stopped() {
		b, ok := d.recQ.Get(p, -1)
		if !ok {
			return
		}
		p.Sleep(time.Duration(1+len(b.meas)) * d.Cfg.RecordProcTime)
		idx := d.childIndex(b.from)
		if idx < 0 {
			continue
		}
		d.lastHeard[idx] = p.Now()
		for _, m := range b.meas {
			d.DB.Record(m)
		}
		if len(b.sks) > 0 {
			d.childSketch[idx] = b.sks
		}
		d.Stats.BatchesIn++
		d.Stats.RecordsIn += uint64(len(b.meas))
	}
}

func (d *Director) childIndex(c *Director) int {
	for i, x := range d.children {
		if x == c {
			return i
		}
	}
	return -1
}

// supervise is the periodic control loop of a director with children:
// watermark-driven backpressure on its own queues, then child liveness
// and shard failover.
func (d *Director) supervise() {
	if !d.up() {
		return
	}
	d.watermarks()
	d.liveness(d.k.Now())
}

// watermarks raises the backpressure level when either ingest queue is a
// quarter full (the high-water mark, QueueCap/4) — widening the local
// coalescing window and telling every child to stretch its re-export
// interval — and releases it level by level once depth falls back to a
// sixteenth (the low-water mark, QueueCap/16).
func (d *Director) watermarks() {
	depth := d.trapQ.Len()
	if r := d.recQ.Len(); r > depth {
		depth = r
	}
	switch {
	case depth >= d.Cfg.QueueCap/4 && d.level < maxLevel:
		d.level++
		d.Stats.Stretches++
		d.applyPressure()
	case depth <= d.Cfg.QueueCap/16 && d.level > 0:
		d.level--
		d.applyPressure()
	}
}

// maxLevel bounds backpressure escalation; with doubling schedules three
// levels span an 8× stretch, which meets the window's 4× cap and any
// MaxReexport cap up to 8× Reexport.
const maxLevel = 3

func (d *Director) applyPressure() {
	if base := d.Cfg.CoalesceWindow; base > 0 {
		d.co.SetWindow(min(base<<d.level, 4*base))
	}
	for _, c := range d.children {
		c.setStretch(d.level)
	}
}

// setStretch is the parent's backpressure signal: stretch the re-export
// schedule (and propagate so grandchildren slow down too).
func (d *Director) setStretch(level int) {
	d.stretch = level
	for _, c := range d.children {
		c.setStretch(level)
	}
}

// liveness walks the children looking for leaf directors that stopped
// heartbeating (adopting their shard onto a live sibling) and for dead
// ones that came back (reclaiming the shard). Data for an orphaned shard
// goes stale under the senescence watchdog until the adopter's first
// covering re-export lands — staleness is surfaced, freshness is never
// fabricated.
func (d *Director) liveness(now time.Duration) {
	for i, c := range d.children {
		if c.member == nil {
			continue
		}
		if !d.childDead[i] && now-d.lastHeard[i] > d.Cfg.AdoptAfter && now > d.Cfg.AdoptAfter {
			d.childDead[i] = true
			if a := d.pickAdopter(i); a != nil {
				d.adopt(c, a, now)
			}
			continue
		}
		if d.childDead[i] && c.up() && now-d.lastHeard[i] <= d.Cfg.AdoptAfter {
			d.childDead[i] = false
			d.reclaim(c, now)
		}
	}
}

// pickAdopter chooses the first live leaf sibling after the orphan in
// attachment order — deterministic and load-spreading enough for a drill.
func (d *Director) pickAdopter(orphan int) *Director {
	n := len(d.children)
	for off := 1; off < n; off++ {
		c := d.children[(orphan+off)%n]
		if c.member != nil && c.up() && !d.childDead[(orphan+off)%n] {
			return c
		}
	}
	return nil
}

// adopt moves the orphan's current shard onto the adopter. The adopter's
// member re-submits the union request; agents already deployed on the
// orphaned shard's hosts are found in the shared cots.AgentRegistry, so
// adoption re-uses them rather than re-deploying.
func (d *Director) adopt(orphan, adopter *Director, now time.Duration) {
	moved := len(orphan.assigned)
	adopter.assigned = append(adopter.assigned, orphan.assigned...)
	orphan.assigned = orphan.assigned[:0]
	orphan.member.Submit(core.Request{Metrics: d.metricsL})
	adopter.member.Submit(core.Request{Paths: adopter.assigned, Metrics: d.metricsL})
	d.Stats.Adoptions++
	d.Events = append(d.Events, fmt.Sprintf("%v adopt %s->%s (%d paths)", now, orphan.Name, adopter.Name, moved))
}

// reclaim hands a revived leaf its home shard back, trimming it from
// whichever siblings adopted it.
func (d *Director) reclaim(c *Director, now time.Duration) {
	homeIDs := make(map[core.PathID]bool, len(c.home))
	for _, p := range c.home {
		homeIDs[p.ID] = true
	}
	for _, s := range d.children {
		if s == c || s.member == nil {
			continue
		}
		kept := s.assigned[:0]
		changed := false
		for _, p := range s.assigned {
			if homeIDs[p.ID] {
				changed = true
				continue
			}
			kept = append(kept, p)
		}
		s.assigned = kept
		if changed {
			s.member.Submit(core.Request{Paths: s.assigned, Metrics: d.metricsL})
		}
	}
	c.assigned = append(c.assigned[:0], c.home...)
	c.member.Submit(core.Request{Paths: c.assigned, Metrics: d.metricsL})
	d.Stats.Reclaims++
	d.Events = append(d.Events, fmt.Sprintf("%v reclaim %s (%d paths)", now, c.Name, len(c.home)))
}

// Query answers current-value reporting from the local database (Monitor
// interface): the member's on a leaf, the aggregated one when interior.
func (d *Director) Query(path core.PathID, metric metrics.Metric) (core.Measurement, bool) {
	return d.localDB().Current(path, metric)
}

// LastKnown answers last-known-value reporting from the local database.
func (d *Director) LastKnown(path core.PathID, metric metrics.Metric) (core.Measurement, bool) {
	return d.localDB().LastKnown(path, metric)
}

// QueryFresh answers senescence-gated reporting from the local database
// (FreshQuerier): upstream silence surfaces as staleness, never as a
// fresh-looking stale value.
func (d *Director) QueryFresh(path core.PathID, metric metrics.Metric, now, ttl time.Duration) (core.Measurement, bool) {
	return d.localDB().Fresh(now, path, metric, ttl)
}

// leafFor resolves the leaf currently owning path by scanning assignments
// — always current across adoptions, and cheap at query rates.
func (d *Director) leafFor(path core.PathID) *Director {
	for _, l := range d.Leaves() {
		for _, p := range l.assigned {
			if p.ID == path {
				return l
			}
		}
	}
	return nil
}

// Quantile delegates distributional queries to the owning leaf's member
// database, where the full-resolution per-path sketch lives.
func (d *Director) Quantile(path core.PathID, metric metrics.Metric, p float64) (float64, bool) {
	if l := d.leafFor(path); l != nil {
		return l.member.Database().Quantile(path, metric, p)
	}
	return 0, false
}

// QuantileSummary delegates to the owning leaf's member database.
func (d *Director) QuantileSummary(path core.PathID, metric metrics.Metric) (sketch.Summary, bool) {
	if l := d.leafFor(path); l != nil {
		return l.member.Database().SketchSummary(path, metric)
	}
	return sketch.Summary{}, false
}

// MergeSketchInto delegates to the owning leaf's member database
// (SketchMerger).
func (d *Director) MergeSketchInto(dst *sketch.Sketch, path core.PathID, metric metrics.Metric) bool {
	if l := d.leafFor(path); l != nil {
		return l.member.Database().MergeSketchInto(dst, path, metric)
	}
	return false
}

// CoalescedTotal sums the subtree's coalesced-trap counters in tree order
// — the traffic the dedup windows absorbed before it could queue upward.
func (d *Director) CoalescedTotal() uint64 {
	n := d.co.Coalesced
	for _, c := range d.children {
		n += c.CoalescedTotal()
	}
	return n
}

// AggregateSketch merges the subtree's region sketches for metric into one
// digest: a leaf merges its member's per-path sketches in assignment
// order; an interior director merges its children's latest re-exported
// region sketches in child order. Merge order is fixed, so the digest is
// bit-identical run to run.
func (d *Director) AggregateSketch(metric metrics.Metric) (sketch.Sketch, bool) {
	var agg sketch.Sketch
	any := false
	if d.member != nil {
		db := d.member.Database()
		for _, p := range d.assigned {
			any = db.MergeSketchInto(&agg, p.ID, metric) || any
		}
		return agg, any
	}
	for i := range d.children {
		for _, rs := range d.childSketch[i] {
			if rs.metric == metric {
				agg.Merge(rs.sk)
				any = true
			}
		}
	}
	return agg, any
}
