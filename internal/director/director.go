package director

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
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
	// CoalesceWindow is the dedup window; 0 disables coalescing (the
	// flat-station model).
	CoalesceWindow time.Duration
	// FlushEvery is the cadence of the window-expiry sweep (default 50ms).
	FlushEvery time.Duration
	// Reexport is the upward re-export interval (default 250ms).
	Reexport time.Duration
	// MaxReexport is held: nothing reads it, the bench module sets it.
	MaxReexport time.Duration
	// Supervise is the supervisor cadence: child liveness and adoption
	// (default 250ms).
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
	// BatchesIn / RecordsIn count ingested summary batches and the
	// records they carried; the Dropped pair counts whole batches lost at
	// the full record queue, the Lost pair batches offered while the
	// director was down. Σ children's Reexports = BatchesIn +
	// BatchesDropped + BatchesLost + queued + the one in process.
	BatchesIn      uint64
	RecordsIn      uint64
	BatchesDropped uint64
	RecordsDropped uint64
	BatchesLost    uint64
	RecordsLost    uint64
	// Reexports counts upward summary batches sent.
	Reexports uint64
	// Adoptions and Reclaims count failover events.
	Adoptions uint64
	Reclaims  uint64
}

// batch is one upward re-export: the child's current view of its assigned
// (path, metric) pairs plus one merged region sketch per metric. An empty
// batch is still a heartbeat. Its meas and sks buffers belong to the child
// that built it: the parent hands them back (giveBack) once it has ingested,
// dropped or lost the batch, and the child builds a later batch in them.
type batch struct {
	from *Director
	at   time.Duration
	meas []core.Measurement
	sks  []regionSketch
}

type regionSketch struct {
	metric metrics.Metric
	sk     sketch.Sketch
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

	// Written by the parent: when it last ingested a batch from d, whether
	// it declared d dead, and a copy of the region sketches of d's latest
	// batch.
	heard    time.Duration
	dead     bool
	sketches []regionSketch

	// spare holds the buffers of d's batches that the parent has handed
	// back; d's next re-export takes one instead of allocating.
	spare []batch

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
	}
	if member != nil {
		d.DB = member.Database()
	}
	k.OnClose(d.mustBalanceTraps)
	return d
}

// mustBalanceTraps is the kernel's close hook, the director's trap ledger:
// every trap offered while it was alive was dropped at the full queue, was
// processed, or is still queued or in service. A run where that does not
// hold fails there, naming every term.
func (d *Director) mustBalanceTraps() {
	st := &d.Stats
	queued, inService := d.trapQ.Len(), d.trapQ.InService()
	if out := st.TrapsDropped + st.TrapsProcessed + uint64(queued+inService); st.TrapsIn != out {
		panic(fmt.Errorf("director: trap ledger of %s is off by %d: in %d, but dropped %d + processed %d + "+
			"queued %d + in service %d = %d", d.Name, int64(st.TrapsIn-out), st.TrapsIn, st.TrapsDropped,
			st.TrapsProcessed, queued, inService, out))
	}
}

// AddChild attaches a child director beneath d.
func (d *Director) AddChild(c *Director) {
	c.parent = d
	d.children = append(d.children, c)
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
	leaves := d.Leaves()
	if len(leaves) == 0 && len(req.Paths) > 0 {
		panic(fmt.Sprintf("director: %s has no leaf to take the %d submitted paths", d.Name, len(req.Paths)))
	}
	shares := make(map[*Director][]core.Path, len(leaves))
	for i, p := range req.Paths {
		l := leaves[i%len(leaves)]
		shares[l] = append(shares[l], p)
	}
	d.applyShares(shares, req.Metrics)
}

func (d *Director) applyShares(shares map[*Director][]core.Path, mets []metrics.Metric) {
	d.metricsL = mets
	if d.member != nil {
		d.assigned = shares[d]
		d.home = append(d.home[:0], d.assigned...)
		d.member.Submit(core.Request{Paths: d.assigned, Metrics: mets})
		return
	}
	d.assigned = d.assigned[:0]
	for _, c := range d.children {
		c.applyShares(shares, mets)
		d.assigned = append(d.assigned, c.assigned...)
	}
	d.DirectorBase.Submit(core.Request{Paths: d.assigned, Metrics: mets})
}

// Start starts the subtree's processes: member monitors, the trap queue's
// server, window flusher, re-export timer (non-top directors), and — on
// directors with children — the record queue's server, the supervisor and
// the senescence watchdog. All of them are kernel events, none a proc: the
// two servers run on sim.Queue.Serve, the rest on timers.
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
	d.trapQ.Serve(d.running, d.trapService, d.serveTrap)
	d.timers = append(d.timers, d.k.Every(d.Cfg.FlushEvery, func() {
		if !d.up() {
			return
		}
		d.co.Flush(d.k.Now())
		d.dispatch(d.co.Take())
	}))
	if d.parent != nil {
		// Armed one event later, so a tick at an instant it shares with
		// the parent's supervisor or watchdog runs after them.
		d.timers = append(d.timers, d.k.After(0, func() {
			d.timers = append(d.timers, d.k.Every(d.Cfg.Reexport, func() {
				if d.up() {
					d.reexport(d.k.Now())
				}
			}))
		}))
	}
	if len(d.children) > 0 {
		d.recQ.Serve(d.running, d.ingestService, d.ingestBatch)
		d.timers = append(d.timers, d.k.Every(d.Cfg.Supervise, func() {
			if d.up() {
				d.liveness(d.k.Now())
			}
		}))
		d.timers = append(d.timers, d.StartSenescenceWatchdog(d.Cfg.WatchdogEvery, d.Cfg.TTL))
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

// running is the served queues' more: a stopped director's trap and record
// servers end once the item in hand is handled.
func (d *Director) running() bool { return !d.Stopped() }

func (d *Director) trapService(Trap) time.Duration { return d.Cfg.TrapProcTime }

func (d *Director) ingestService(b batch) time.Duration {
	return time.Duration(1+len(b.meas)) * d.Cfg.RecordProcTime
}

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

// serveTrap runs one trap through the coalescer once its TrapProcTime is
// served; surviving traps move up (or surface at the top).
func (d *Director) serveTrap(t Trap) {
	d.Stats.TrapsProcessed++
	d.co.Offer(t, d.k.Now())
	d.dispatch(d.co.Take())
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

// reexport pushes the director's current view — one measurement per
// assigned (path, metric) pair plus a merged region sketch per metric —
// into the parent's bounded record queue, every Reexport. The batch doubles
// as the liveness heartbeat, so it is sent even when empty; a down host
// sends nothing, which is what the parent's adoption timer watches for.
func (d *Director) reexport(now time.Duration) {
	var b batch
	if n := len(d.spare); n > 0 {
		b = d.spare[n-1]
		d.spare = d.spare[:n-1]
	}
	b.from, b.at = d, now
	b.meas, b.sks = b.meas[:0], b.sks[:0]
	for _, path := range d.assigned {
		for _, met := range d.metricsL {
			if m, ok := d.DB.Current(path.ID, met); ok {
				b.meas = append(b.meas, m)
			}
		}
	}
	for _, met := range d.metricsL {
		b.sks = append(b.sks, regionSketch{metric: met})
		agg := &b.sks[len(b.sks)-1].sk
		merged := false
		for _, path := range d.assigned {
			merged = d.DB.MergeSketchInto(agg, path.ID, met) || merged
		}
		if !merged {
			b.sks = b.sks[:len(b.sks)-1]
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

// offerBatch receives a child's re-export into the bounded record queue,
// tail-dropping whole batches with accounting when full; a down director
// loses the batch, also with accounting.
func (d *Director) offerBatch(b batch) {
	switch {
	case !d.up():
		d.Stats.BatchesLost++
		d.Stats.RecordsLost += uint64(len(b.meas))
		b.giveBack()
	case !d.recQ.Put(b):
		d.Stats.BatchesDropped++
		d.Stats.RecordsDropped += uint64(len(b.meas))
		b.giveBack()
	}
}

// giveBack returns the batch's buffers to the child that built them. The
// tree runs on one kernel, so the hand-back needs no lock.
func (b batch) giveBack() { b.from.spare = append(b.from.spare, b) }

// ingestBatch takes one child's summary batch into the local database once
// its RecordProcTime per record is served: it refreshes the child's
// heartbeat and keeps its latest region sketches for aggregation.
func (d *Director) ingestBatch(b batch) {
	b.from.heard = d.k.Now()
	for _, m := range b.meas {
		d.DB.Record(m)
	}
	if len(b.sks) > 0 {
		b.from.sketches = append(b.from.sketches[:0], b.sks...)
	}
	d.Stats.BatchesIn++
	d.Stats.RecordsIn += uint64(len(b.meas))
	b.giveBack()
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
		return l.DB.Quantile(path, metric, p)
	}
	return 0, false
}

// QuantileSummary delegates to the owning leaf's member database.
func (d *Director) QuantileSummary(path core.PathID, metric metrics.Metric) (sketch.Summary, bool) {
	if l := d.leafFor(path); l != nil {
		return l.DB.SketchSummary(path, metric)
	}
	return sketch.Summary{}, false
}

// MergeSketchInto delegates to the owning leaf's member database
// (SketchMerger).
func (d *Director) MergeSketchInto(dst *sketch.Sketch, path core.PathID, metric metrics.Metric) bool {
	if l := d.leafFor(path); l != nil {
		return l.DB.MergeSketchInto(dst, path, metric)
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
		for _, p := range d.assigned {
			any = d.DB.MergeSketchInto(&agg, p.ID, metric) || any
		}
		return agg, any
	}
	for _, c := range d.children {
		for i := range c.sketches {
			if rs := &c.sketches[i]; rs.metric == metric {
				agg.Merge(&rs.sk)
				any = true
			}
		}
	}
	return agg, any
}
