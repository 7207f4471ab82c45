package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

func TestDatabaseSketchQuantile(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	p := PathID("a->b")
	rng := rand.New(rand.NewSource(5))
	var xs []float64
	for i := 0; i < 500; i++ {
		v := 10 + rng.Float64()*90
		xs = append(xs, v)
		db.Record(Measurement{Path: p, Metric: metrics.OneWayLatency, Value: v})
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, ok := db.Quantile(p, metrics.OneWayLatency, q)
		if !ok {
			t.Fatalf("Quantile(%v) not ok with sketches enabled", q)
		}
		exact := sketch.Exact(xs, q)
		if e := relErr(got, exact); e > 0.02 {
			t.Errorf("Quantile(%v) = %v, exact %v: rel err %.4f > 2%%", q, got, exact, e)
		}
	}
	sum, ok := db.SketchSummary(p, metrics.OneWayLatency)
	if !ok || sum.Count != 500 {
		t.Fatalf("SketchSummary: ok=%v count=%d, want 500", ok, sum.Count)
	}
	if got, ok := db.Quantile(p, metrics.OneWayLatency, math.NaN()); ok {
		t.Errorf("Quantile(NaN) = %v, ok; want ok=false", got)
	}
}

func TestDatabaseSketchDisabled(t *testing.T) {
	db := NewDatabase()
	p := PathID("a->b")
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: 1})
	if _, ok := db.Quantile(p, metrics.Throughput, 0.5); ok {
		t.Error("Quantile ok without EnableSketches")
	}
	if _, ok := db.SketchSummary(p, metrics.Throughput); ok {
		t.Error("SketchSummary ok without EnableSketches")
	}
	var agg sketch.Sketch
	if db.MergeSketchInto(&agg, p, metrics.Throughput) {
		t.Error("MergeSketchInto ok without EnableSketches")
	}
}

func TestDatabaseSketchSkipsFailures(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	p := PathID("a->b")
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: 10})
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Err: "unreachable"})
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: 20})
	sum, ok := db.SketchSummary(p, metrics.Throughput)
	if !ok || sum.Count != 2 {
		t.Fatalf("sketch count = %d, want 2 (failures must not feed the sketch)", sum.Count)
	}
	if sum.Min != 10 || sum.Max != 20 {
		t.Errorf("min/max = %v/%v, want 10/20", sum.Min, sum.Max)
	}
}

func TestDatabaseSketchThresholds(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{Stall: 100, MicroStall: 50})
	p := PathID("a->b")
	for _, v := range []float64{10, 60, 150, 40, 200} {
		db.Record(Measurement{Path: p, Metric: metrics.OneWayLatency, Value: v})
	}
	sum, _ := db.SketchSummary(p, metrics.OneWayLatency)
	if sum.Stalls != 2 || sum.MicroStalls != 1 {
		t.Errorf("stalls/micro = %d/%d, want 2/1", sum.Stalls, sum.MicroStalls)
	}
}

func TestEnableSketchesAfterRecordPanics(t *testing.T) {
	db := NewDatabase()
	db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: 1})
	defer func() {
		if recover() == nil {
			t.Error("EnableSketches after Record did not panic")
		}
	}()
	db.EnableSketches(sketch.Thresholds{})
}

// TestHistoryDepthLocked: HistoryDepth is captured at the database's first
// Record; changing it afterwards panics rather than silently giving new
// series a different depth.
func TestHistoryDepthLocked(t *testing.T) {
	db := NewDatabase()
	db.HistoryDepth = 8
	db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: 1})
	db.HistoryDepth = 16
	defer func() {
		if recover() == nil {
			t.Error("HistoryDepth change after first Record did not panic")
		}
	}()
	db.Record(Measurement{Path: "q", Metric: metrics.Throughput, Value: 2})
}

func TestDatabaseFootprint(t *testing.T) {
	db := NewDatabase()
	db.HistoryDepth = 4
	db.EnableSketches(sketch.Thresholds{})
	for i := 0; i < 10; i++ {
		db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: float64(i)})
	}
	db.Record(Measurement{Path: "q", Metric: metrics.Throughput, Value: 1})
	fp := db.Footprint()
	if fp.Series != 2 {
		t.Errorf("Series = %d, want 2", fp.Series)
	}
	if fp.Retained != 5 { // p's ring holds 4 of its 10, q holds 1
		t.Errorf("Retained = %d, want 5", fp.Retained)
	}
	if fp.RingBytes != 2*4*64 { // 2 series x depth 4 x 64 B/Measurement
		t.Errorf("RingBytes = %d, want %d", fp.RingBytes, 2*4*64)
	}
	var s sketch.Sketch
	if fp.SketchBytes != 2*s.Bytes() {
		t.Errorf("SketchBytes = %d, want %d", fp.SketchBytes, 2*s.Bytes())
	}
}

// TestDatabaseFootprintTelemetry: every published instrument is read from
// the database's own accounting — the counters from its exported counts,
// the gauges from Footprint() — at the moment it is asked.
func TestDatabaseFootprintTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	db.EnableTelemetry(reg, "db")
	db.EnableTelemetry(nil, "off") // a nil registry is a no-op
	for i := 0; i < 3; i++ {
		db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: float64(i), TakenAt: time.Duration(i) * time.Second})
	}
	db.Record(Measurement{Path: "q", Metric: metrics.Throughput, Value: 1})
	db.Fresh(3*time.Second, "p", metrics.Throughput, 2*time.Second)    // hit
	db.Fresh(3*time.Second, "q", metrics.Throughput, 2*time.Second)    // miss: over-age
	db.Fresh(3*time.Second, "none", metrics.Throughput, 2*time.Second) // miss: unknown
	db.MarkStale(3*time.Second, 2*time.Second)
	db.Fresh(3*time.Second, "q", metrics.Throughput, 0) // miss: marked stale

	fp := db.Footprint()
	if fp.Series != 2 || fp.Retained != 4 || db.FreshHits != 1 || db.FreshMisses != 3 || db.StaleMarked != 1 {
		t.Fatalf("scenario drifted: %+v, hits %d misses %d marked %d", fp, db.FreshHits, db.FreshMisses, db.StaleMarked)
	}
	counters := map[string]uint64{
		"db.records":      db.Records,
		"db.stale_marks":  db.StaleMarked,
		"db.fresh_hits":   db.FreshHits,
		"db.fresh_misses": db.FreshMisses,
	}
	gauges := map[string]int{
		"db.series":           fp.Series,
		"db.retained_samples": fp.Retained,
		"db.sketch_bytes":     fp.SketchBytes,
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range gauges {
		if got := reg.Gauge(name).Value(); got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	if n := len(counters) + len(gauges); reg.Len() != n {
		t.Errorf("%d instruments registered, %d checked against the database", reg.Len(), n)
	}
}

func TestDatabaseMergeSketchInto(t *testing.T) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	var want sketch.Sketch
	for i := 0; i < 300; i++ {
		v := float64(i % 37)
		db.Record(Measurement{Path: "p", Metric: metrics.Throughput, Value: v})
		want.Update(v)
	}
	var agg sketch.Sketch
	if !db.MergeSketchInto(&agg, "p", metrics.Throughput) {
		t.Fatal("MergeSketchInto reported no sketch")
	}
	if agg != want {
		t.Error("merged-from-empty sketch differs from directly-fed sketch")
	}
	// The export must not have mutated the database's own sketch.
	sum, _ := db.SketchSummary("p", metrics.Throughput)
	if sum.Count != 300 {
		t.Errorf("database sketch count = %d after export, want 300", sum.Count)
	}
}

// TestAggregateSketchShardInvariant: the federated roll-up is bit-identical
// no matter how paths are partitioned across members — the merge order is
// fixed by sorted path ID, not by member.
func TestAggregateSketchShardInvariant(t *testing.T) {
	paths := []PathID{"pD", "pA", "pC", "pB"}
	values := map[PathID][]float64{}
	rng := rand.New(rand.NewSource(23))
	for _, p := range paths {
		for i := 0; i < 150; i++ {
			values[p] = append(values[p], 5+rng.Float64()*100)
		}
	}
	// build constructs a ShardedMonitor over n members with paths dealt
	// round-robin, feeds each path's values to its owner, and aggregates.
	build := func(n int) sketch.Sketch {
		members := make([]Monitor, n)
		bases := make([]*recordingMonitor, n)
		for i := range members {
			m := newRecordingMonitor()
			bases[i] = m
			members[i] = m
		}
		owner := func(p Path) int {
			for i, id := range paths {
				if p.ID == id {
					return i % n
				}
			}
			return 0
		}
		sm := NewShardedMonitor(owner, members...)
		var req Request
		for _, id := range paths {
			req.Paths = append(req.Paths, Path{ID: id})
		}
		req.Metrics = []metrics.Metric{metrics.OneWayLatency}
		sm.Submit(req)
		for i, id := range paths {
			b := bases[i%n]
			for _, v := range values[id] {
				b.DB.Record(Measurement{Path: id, Metric: metrics.OneWayLatency, Value: v})
			}
		}
		agg, ok := sm.AggregateSketch(metrics.OneWayLatency, paths)
		if !ok {
			t.Fatal("AggregateSketch found no sketches")
		}
		return agg
	}
	ref := build(1)
	for _, n := range []int{2, 3, 4} {
		if got := build(n); got != ref {
			t.Errorf("AggregateSketch differs between 1 and %d members", n)
		}
	}
	// Sanity: the aggregate covers every observation.
	var total int
	for _, vs := range values {
		total += len(vs)
	}
	if ref.Count() != uint64(total) {
		t.Errorf("aggregate count = %d, want %d", ref.Count(), total)
	}
	// And matches the exact quantiles of the pooled values within bounds.
	var pooled []float64
	ids := append([]PathID(nil), paths...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pooled = append(pooled, values[id]...)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if e := relErr(ref.Quantile(q), sketch.Exact(pooled, q)); e > 0.04 {
			t.Errorf("aggregate Quantile(%v): rel err %.4f > 4%%", q, e)
		}
	}
}

// recordingMonitor is a minimal Monitor around DirectorBase for federation
// tests that feed the database directly.
type recordingMonitor struct {
	DirectorBase
}

func newRecordingMonitor() *recordingMonitor {
	m := &recordingMonitor{DirectorBase: DirectorBase{DB: NewDatabase()}}
	m.DB.EnableSketches(sketch.Thresholds{})
	return m
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}
