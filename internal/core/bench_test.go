package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sketch"
)

// BenchmarkRecord measures steady-state cost of Database.Record under
// sustained load on a small working set of series.
func BenchmarkRecord(b *testing.B) {
	db := NewDatabase()
	paths := []PathID{"a->b", "b->c", "c->d", "d->e"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Record(Measurement{
			Path:    paths[i%len(paths)],
			Metric:  metrics.Throughput,
			Value:   float64(i),
			TakenAt: time.Duration(i) * time.Microsecond,
		})
	}
}

// BenchmarkDBRecordWithSketch is BenchmarkRecord with per-series sketches
// enabled: the delta over BenchmarkRecord is the price of maintaining the
// incremental quantile summary on the hot ingest path. It must stay
// allocation-free in steady state, same as Record.
func BenchmarkDBRecordWithSketch(b *testing.B) {
	db := NewDatabase()
	db.EnableSketches(sketch.Thresholds{Stall: 0.05, MicroStall: 0.005})
	paths := []PathID{"a->b", "b->c", "c->d", "d->e"}
	for i := 0; i < 4*len(paths); i++ { // warm: series + sketches pre-created
		db.Record(Measurement{
			Path:    paths[i%len(paths)],
			Metric:  metrics.Throughput,
			Value:   float64(i),
			TakenAt: time.Duration(i) * time.Microsecond,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Record(Measurement{
			Path:    paths[i%len(paths)],
			Metric:  metrics.Throughput,
			Value:   float64(i),
			TakenAt: time.Duration(i) * time.Microsecond,
		})
	}
}

// mixedStore is a warm store of 1,024 series configured as the db-query-mix
// benchmark workload configures its store (sketches on, results batched by
// 16), with Zipf-skewed streams of series for writes and reads: a hot head
// of series folds their sketches often, a long cold tail stays in exact mode.
type mixedStore struct {
	db            *Database
	paths         []PathID
	writes, reads []uint16
	ops           int
}

func newMixedStore() *mixedStore {
	const series, writes = 1024, 1 << 15
	m := &mixedStore{db: NewDatabase(), writes: make([]uint16, writes), reads: make([]uint16, writes/4)}
	m.db.EnableSketches(sketch.Thresholds{})
	m.db.EnableResults(&countSink{}, 16)
	for i := 0; i < series; i++ {
		m.paths = append(m.paths, PathID(fmt.Sprintf("h%d->h%d", i, i+1)))
	}
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 8, series-1)
	for i := range m.writes {
		m.writes[i] = uint16(z.Uint64())
	}
	for i := range m.reads {
		m.reads[i] = uint16(z.Uint64())
	}
	for _, p := range m.paths { // every series exists
		m.db.Record(Measurement{Path: p, Metric: metrics.OneWayLatency, Value: 1})
	}
	for range m.reads { // every stream position visited once
		m.step()
	}
	return m
}

// step is db-query-mix's unit of work: four Records, then one
// Quantile(0.95) of a series drawn from the read stream.
func (m *mixedStore) step() float64 {
	for j := 0; j < 4; j++ {
		k := m.ops % len(m.writes)
		m.db.Record(Measurement{Path: m.paths[m.writes[k]], Metric: metrics.OneWayLatency,
			Value: float64(m.ops*2654435761%1000) / 1000, TakenAt: time.Duration(m.ops) * time.Millisecond})
		m.ops++
	}
	q, _ := m.db.Quantile(m.paths[m.reads[(m.ops/4-1)%len(m.reads)]], metrics.OneWayLatency, 0.95)
	return q
}

// BenchmarkDatabaseQuantileMixed prices a quantile read as db-query-mix
// pays it: one op is four Records and one Quantile(0.95) on a warm
// 1,024-series store with skewed access, so most reads find a series whose
// sketch changed since its last read. (A repeat query with no Record
// between answers from the series' View memo; that is what bench's
// core.quantile_ns probe mostly measures.)
func BenchmarkDatabaseQuantileMixed(b *testing.B) {
	m := newMixedStore()
	acc := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += m.step()
	}
	if acc < 0 {
		b.Fatal("negative quantile")
	}
}
