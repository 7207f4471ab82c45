package core

import (
	"math"
	"sort"
	"time"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

// DefaultHistoryDepth is how many samples the database retains per
// (path, metric).
const DefaultHistoryDepth = 64

type dbKey struct {
	path   PathID
	metric metrics.Metric
}

// sample is one retained measurement without its (path, metric): the map
// key a query looks the series up by supplies those (see dbKey.measurement).
type sample struct {
	takenAt time.Duration
	value   float64
	err     string
	quality Quality
}

// measurement rebuilds the Measurement x was recorded from.
func (k dbKey) measurement(x *sample) Measurement {
	return Measurement{Path: k.path, Metric: k.metric, Value: x.value,
		Quality: x.quality, TakenAt: x.takenAt, Err: x.err}
}

// dbSeries retains history in a fixed ring buffer sized once when the
// series is created, so sustained recording never copies or reallocates.
// The current value is the ring's newest sample; the last known value
// lives in the ring's spare slot, one past its depth (see lastKnown).
type dbSeries struct {
	ring    []sample      // len == history depth, cap == depth+1
	next    int           // ring slot the next Record writes
	full    bool          // the ring has wrapped: it holds depth samples
	hasLast bool          // the spare slot holds a last known value
	stale   bool          // marked by MarkStale; cleared by the next Record
	sk      *seriesSketch // per-series quantile sketch; nil unless EnableSketches

	// Results batching (nil unless EnableResults): successful values
	// accumulate in rbuf, whose capacity is the batch size, and flush to
	// the sink as one batch when it fills (see flushResults).
	rbuf []float64
}

// seriesSketch is a series' quantile sketch and qv, Quantile's cache of
// it, so a series that does not sketch carries no cache either. Record
// never touches qv, and it sits last so the fields Record writes share as
// few cache lines as possible.
type seriesSketch struct {
	sketch.Sketch
	qv sketch.View
}

// sketchedSeries is a series and its sketch as one allocation: with
// sketches on, a new series costs one object rather than two. dbSeries is
// small enough (72 B) that the pair, with its malloc header, fits the
// 2,304 B size class.
type sketchedSeries struct {
	dbSeries
	sketch seriesSketch
}

// newest is the series' current sample: the ring slot written last. A
// series exists only once recorded, so there is one.
func (s *dbSeries) newest() *sample {
	i := s.next - 1
	if i < 0 {
		i = len(s.ring) - 1
	}
	return &s.ring[i]
}

// lastKnown is the spare ring slot that holds the series' latest
// successful sample; it is meaningful only when hasLast is set.
func (s *dbSeries) lastKnown() *sample {
	r := s.ring[:cap(s.ring)]
	return &r[len(r)-1]
}

// count is how many samples the ring retains.
func (s *dbSeries) count() int {
	if s.full {
		return len(s.ring)
	}
	return s.next
}

// Database is the measurement store of Figure 2. It "enables both current
// value and last known value reporting to the resource manager": the
// current value is the latest sample (which may be a failure), the last
// known value is the latest successful sample.
type Database struct {
	// HistoryDepth bounds per-series history; zero means the default. It
	// must be set before the first Record and must not change afterwards:
	// ring buffers are sized once per series, so a mid-life change would
	// silently give old and new series different depths. Record panics if
	// the value differs from the one in effect at the database's first
	// Record.
	HistoryDepth int

	lockedDepth int  // HistoryDepth value captured at the first Record
	depthLocked bool // whether lockedDepth is in effect

	sketchOn bool              // maintain a quantile sketch per series
	sketchTh sketch.Thresholds // stall levels applied to new sketches

	resSink  BatchSink // durable results seam; nil = disabled
	resBatch int       // samples per flushed batch
	resErr   error     // first sink error, surfaced by FlushResults

	series map[dbKey]*dbSeries
	// Records counts all stored measurements.
	Records uint64
	// StaleMarked counts series marked stale by MarkStale over the
	// database's lifetime (the senescence watchdog's intervention count).
	StaleMarked uint64
	// FreshHits and FreshMisses split the senescence-gated Fresh queries by
	// answer: a sample served, or refused as unknown, stale or over-age.
	FreshHits   uint64
	FreshMisses uint64

	retained  int // samples currently held across all ring buffers
	ringSlots int // ring-buffer capacity allocated across all series
}

// NewDatabase returns an empty store.
func NewDatabase() *Database {
	return &Database{series: make(map[dbKey]*dbSeries)}
}

// EnableTelemetry publishes the database's counts under prefix: records
// stored, series marked stale by the watchdog, the hit/miss split of
// senescence-gated Fresh queries (the live fresh-query hit rate), and
// Footprint's series count, retained samples and sketch bytes as gauges. A
// nil registry publishes nothing.
func (db *Database) EnableTelemetry(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+".records", func() uint64 { return db.Records })
	reg.CounterFunc(prefix+".stale_marks", func() uint64 { return db.StaleMarked })
	reg.CounterFunc(prefix+".fresh_hits", func() uint64 { return db.FreshHits })
	reg.CounterFunc(prefix+".fresh_misses", func() uint64 { return db.FreshMisses })
	reg.GaugeFunc(prefix+".series", func() float64 { return float64(db.Footprint().Series) })
	reg.GaugeFunc(prefix+".retained_samples", func() float64 { return float64(db.Footprint().Retained) })
	reg.GaugeFunc(prefix+".sketch_bytes", func() float64 { return float64(db.Footprint().SketchBytes) })
}

// EnableSketches turns on per-series quantile sketches: every subsequent
// Record of a successful measurement also feeds the series' sketch, and
// the Quantile / SketchSummary / MergeSketchInto queries become live.
// t configures the stall/micro-stall levels applied to every series
// (zero thresholds disable those counters). Must be called before the
// first Record — sketches cannot retroactively cover history.
func (db *Database) EnableSketches(t sketch.Thresholds) {
	if db.Records > 0 {
		panic("core: EnableSketches must be called before the first Record")
	}
	db.sketchOn = true
	db.sketchTh = t
}

// BatchSink receives closed sample batches from the durable results seam.
// *results.Writer satisfies it; the indirection keeps the sim-facing core
// free of any dependency on the results encoding. Everything passed is
// derived from simulation state (atNS is virtual time), so sink content is
// deterministic. The samples slice is only valid during the call.
type BatchSink interface {
	WriteBatch(batch, metric, unit string, atNS int64, samples []float64) error
}

// DefaultResultsBatch is the per-series batch size EnableResults uses when
// given a non-positive one.
const DefaultResultsBatch = 32

// EnableResults streams every series' successful values to sink in
// batches of batchSamples — the durable results pipeline's producer seam.
// Like the telemetry and sketch seams it is off by default and purely
// observational: it consumes no simulated time and changes no monitor
// behavior. Must be called before the first Record. Call FlushResults at
// the end of the run to drain partial batches and collect any sink error.
func (db *Database) EnableResults(sink BatchSink, batchSamples int) {
	if db.Records > 0 {
		panic("core: EnableResults must be called before the first Record")
	}
	if batchSamples <= 0 {
		batchSamples = DefaultResultsBatch
	}
	db.resSink = sink
	db.resBatch = batchSamples
}

// flushResults closes the series' pending batch and hands it to the sink,
// stamped with its newest sample's TakenAt: only successful samples are
// buffered, so that is the last known value's. The first sink failure is
// retained for FlushResults; later batches are still offered (the sink's
// own error handling decides whether to drop).
func (db *Database) flushResults(key dbKey, s *dbSeries) {
	batch := s.rbuf
	if len(batch) == 0 {
		return
	}
	s.rbuf = batch[:0]
	err := db.resSink.WriteBatch(string(key.path), key.metric.String(),
		key.metric.Unit(), int64(s.lastKnown().takenAt), batch)
	if err != nil && db.resErr == nil {
		db.resErr = err
	}
}

// FlushResults drains every series' partially filled batch, in sorted
// (path, metric) order for determinism, and returns the first error the
// sink reported over the database's lifetime. It is safe to call when
// results are disabled (a no-op returning nil) and may be called more
// than once; samples recorded after a flush open fresh batches.
func (db *Database) FlushResults() error {
	if db.resSink == nil {
		return nil
	}
	for _, k := range db.sortedKeys() {
		db.flushResults(k, db.series[k])
	}
	return db.resErr
}

// sortedKeys returns every series key in (path, metric) order, so that
// whole-store walks are deterministic.
func (db *Database) sortedKeys() []dbKey {
	keys := make([]dbKey, 0, len(db.series))
	for k := range db.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].path != keys[j].path {
			return keys[i].path < keys[j].path
		}
		return keys[i].metric < keys[j].metric
	})
	return keys
}

// Record stores a measurement as the current value, updates last-known on
// success, and appends to history, evicting the oldest retained sample once
// the series is at depth.
func (db *Database) Record(m Measurement) {
	if db.depthLocked {
		if db.HistoryDepth != db.lockedDepth {
			panic("core: Database.HistoryDepth changed after the first Record")
		}
	} else {
		db.lockedDepth = db.HistoryDepth
		db.depthLocked = true
	}
	key := dbKey{m.Path, m.Metric}
	s := db.series[key]
	if s == nil {
		depth := db.HistoryDepth
		if depth <= 0 {
			depth = DefaultHistoryDepth
		}
		// The first Record of a series allocates it (with its sketch),
		// its ring and its results buffer, once per (path, metric); the
		// steady recording path below allocates nothing.
		if db.sketchOn {
			ss := &sketchedSeries{}
			ss.sketch.SetThresholds(db.sketchTh)
			s = &ss.dbSeries
			s.sk = &ss.sketch
		} else {
			s = &dbSeries{}
		}
		s.ring = make([]sample, depth, depth+1)
		if db.resSink != nil {
			s.rbuf = make([]float64, 0, db.resBatch)
		}
		db.series[key] = s
		db.ringSlots += depth
	}
	x := sample{takenAt: m.TakenAt, value: m.Value, err: m.Err, quality: m.Quality}
	if !s.full {
		db.retained++
	}
	s.ring[s.next] = x
	if s.next++; s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
	s.stale = false
	if m.OK() {
		*s.lastKnown() = x
		s.hasLast = true
		if s.sk != nil {
			s.sk.Update(m.Value)
		}
		if s.rbuf != nil {
			s.rbuf = append(s.rbuf, m.Value)
			if len(s.rbuf) == cap(s.rbuf) {
				db.flushResults(key, s)
			}
		}
	}
	db.Records++
}

// sketchBytes is the memory held by per-series sketches.
func (db *Database) sketchBytes() int {
	if !db.sketchOn {
		return 0
	}
	var s sketch.Sketch
	return len(db.series) * s.Bytes()
}

// Current returns the latest sample for the series.
func (db *Database) Current(path PathID, metric metrics.Metric) (Measurement, bool) {
	key := dbKey{path, metric}
	s := db.series[key]
	if s == nil {
		return Measurement{}, false
	}
	return key.measurement(s.newest()), true
}

// LastKnown returns the latest successful sample.
func (db *Database) LastKnown(path PathID, metric metrics.Metric) (Measurement, bool) {
	key := dbKey{path, metric}
	s := db.series[key]
	if s == nil || !s.hasLast {
		return Measurement{}, false
	}
	return key.measurement(s.lastKnown()), true
}

// EachHistory visits up to n retained samples (n <= 0 meaning all), oldest
// first, without copying the series; it stops early when fn returns false.
// The visited values are only valid during the call.
func (db *Database) EachHistory(path PathID, metric metrics.Metric, n int, fn func(Measurement) bool) {
	key := dbKey{path, metric}
	s := db.series[key]
	if s == nil {
		return
	}
	cnt := s.count()
	if n > 0 && n < cnt {
		cnt = n
	}
	// The newest cnt samples end at the slot before next.
	start := s.next - cnt + len(s.ring)
	for i := 0; i < cnt; i++ {
		if !fn(key.measurement(&s.ring[(start+i)%len(s.ring)])) {
			return
		}
	}
}

// Senescence returns the age of the current sample at time now — the
// fidelity component of §4.4. ok is false when nothing has been recorded.
func (db *Database) Senescence(now time.Duration, path PathID, metric metrics.Metric) (time.Duration, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil {
		return 0, false
	}
	return now - s.newest().takenAt, true
}

// Fresh returns the current sample only when it is trustworthy at virtual
// time now: not marked stale by the senescence watchdog and, when ttl > 0,
// no older than ttl. A stale or over-age sample reports ok=false — stale
// data is missing data, not evidence of health.
func (db *Database) Fresh(now time.Duration, path PathID, metric metrics.Metric, ttl time.Duration) (Measurement, bool) {
	key := dbKey{path, metric}
	s := db.series[key]
	if s == nil || s.stale || (ttl > 0 && now-s.newest().takenAt > ttl) {
		db.FreshMisses++
		return Measurement{}, false
	}
	db.FreshHits++
	return key.measurement(s.newest()), true
}

// MarkStale marks every series whose current sample is older than ttl at
// virtual time now, and returns how many it newly marked. The next Record
// on a series clears its mark. The senescence watchdog (see
// DirectorBase.StartSenescenceWatchdog) calls this periodically.
func (db *Database) MarkStale(now, ttl time.Duration) int {
	marked := 0
	for _, s := range db.series {
		if s.stale {
			continue
		}
		// s.newest(), inline: this loop ranges over a map, so it calls
		// nothing but builtins.
		i := s.next - 1
		if i < 0 {
			i = len(s.ring) - 1
		}
		if now-s.ring[i].takenAt > ttl {
			s.stale = true
			marked++
		}
	}
	db.StaleMarked += uint64(marked)
	return marked
}

// Series reports the number of (path, metric) series recorded.
func (db *Database) Series() int { return len(db.series) }

// Quantile returns the estimated p-quantile of the series' successful
// observations — the bounded-memory replacement for scanning history.
// ok is false when the series is unknown, sketches are disabled or p is
// NaN.
func (db *Database) Quantile(path PathID, metric metrics.Metric, p float64) (float64, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil || s.sk == nil || s.sk.Count() == 0 || math.IsNaN(p) {
		return 0, false
	}
	return s.sk.QuantileWith(&s.sk.qv, p), true
}

// SketchSummary returns the series' full quantile digest (count, extremes,
// mean, p50/p95/p99, stall counters). ok is false when the series is
// unknown or sketches are disabled.
func (db *Database) SketchSummary(path PathID, metric metrics.Metric) (sketch.Summary, bool) {
	s := db.series[dbKey{path, metric}]
	if s == nil || s.sk == nil || s.sk.Count() == 0 {
		return sketch.Summary{}, false
	}
	return s.sk.Summary(), true
}

// MergeSketchInto folds the series' sketch into dst without modifying the
// database — the export primitive hierarchical directors federate on. It
// reports whether the series existed with a live sketch.
func (db *Database) MergeSketchInto(dst *sketch.Sketch, path PathID, metric metrics.Metric) bool {
	s := db.series[dbKey{path, metric}]
	if s == nil || s.sk == nil || s.sk.Count() == 0 {
		return false
	}
	dst.Merge(&s.sk.Sketch)
	return true
}

// Footprint is the database's memory accounting, per the telemetry gauges
// and experiment E15's bytes/series axis.
type Footprint struct {
	Series      int // (path, metric) series recorded
	Retained    int // samples currently held in ring buffers
	RingBytes   int // bytes of ring-buffer history: depth samples a series
	SketchBytes int // bytes held by per-series quantile sketches
}

// Footprint reports the database's current memory accounting.
func (db *Database) Footprint() Footprint {
	return Footprint{
		Series:      len(db.series),
		Retained:    db.retained,
		RingBytes:   db.ringSlots * int(unsafe.Sizeof(sample{})),
		SketchBytes: db.sketchBytes(),
	}
}
