package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sketch"
)

const (
	dbSeries = 1024
	// dbTick is the virtual time between two ops of a db workload: the
	// measurement timeline advances 1 ms per op, so 1000 ops are one
	// virtual second.
	dbTick   = time.Millisecond
	dbTTL    = 2 * time.Second // Fresh/MarkStale bound: ~2000 ops
	dbFailPM = 10              // failed measurements per thousand
)

// dbInputs is everything a db workload feeds the store, generated from the
// seed before timing starts: which series each op touches (skewed, so the
// working set has a hot head and a long cold tail) and the series keys.
type dbInputs struct {
	keys   []pair
	series []uint16 // op -> series index, Zipf-like
}

func genDBInputs(seed int64, ops int) *dbInputs {
	in := &dbInputs{series: make([]uint16, ops)}
	mets := []metrics.Metric{metrics.Throughput, metrics.OneWayLatency}
	for i := 0; i < dbSeries; i++ {
		in.keys = append(in.keys, pair{core.PathID(fmt.Sprintf("h%d->h%d", i/2, i/2+1)), mets[i%2]})
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 8, dbSeries-1)
	for i := range in.series {
		in.series[i] = uint16(z.Uint64())
	}
	return in
}

// valueGen is the per-op value stream: a xorshift generator cheap enough
// that the timed loop measures the store, not the generator.
type valueGen uint64

func (g *valueGen) next() uint64 {
	x := uint64(*g)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*g = valueGen(x)
	return x
}

// measurement builds op i's sample: 1 % are failed collections.
func (in *dbInputs) measurement(i int, g *valueGen) core.Measurement {
	k := in.keys[in.series[i]]
	x := g.next()
	m := core.Measurement{Path: k.path, Metric: k.metric, TakenAt: time.Duration(i) * dbTick,
		Value: float64(x>>11) / (1 << 53), Quality: core.QualityDirect}
	if x%1000 < dbFailPM {
		m.Err = "timeout"
	}
	return m
}

// newBenchDB opens the store as the monitors configure it: sketches and
// the results seam on.
func (c *ctx) newBenchDB(scenario string) (*core.Database, *sinkSeam, *streamSum) {
	db := core.NewDatabase()
	db.EnableSketches(sketch.Thresholds{})
	sink, stream := c.newResults(scenario, 1)
	db.EnableResults(sink, 16)
	return db, sink, stream
}

// dbIngest is the store's write path alone, on a working set far beyond
// L2: no simulator, 1024 series, skewed access.
func dbIngest(c *ctx) (*job, error) {
	ops := c.pickN(3_200_000, 60_000)
	sp := c.tr.begin("topo.build") // input generation is this workload's build step
	in := genDBInputs(c.seed, ops)
	c.tr.end(sp)
	dep := c.tr.begin("monitor.deploy")
	db, sink, stream := c.newBenchDB("db-ingest")
	c.tr.end(dep)
	g := valueGen(c.seed*2654435761 + 1)
	done := 0
	return &job{
		horizon: time.Duration(ops) * dbTick,
		run: func(t time.Duration) int {
			upto := int(t / dbTick)
			n := upto - done
			for ; done < upto; done++ {
				db.Record(in.measurement(done, &g))
			}
			return n
		},
		flush:  db.FlushResults,
		close:  func() {},
		stream: stream,
		collect: func(r *result, _ int) {
			dbTotals(r, db, in.keys)
			sinkTotals(r, sink)
			r.attempts = db.Records
		},
	}, nil
}

// dbQueryMix puts reads beside writes on the same store: one Fresh + one
// Quantile(0.95) per four Records, and a MarkStale sweep every 10 k ops —
// the manager's p95-policy path.
func dbQueryMix(c *ctx) (*job, error) {
	ops := c.pickN(850_000, 40_000)
	sp := c.tr.begin("topo.build")
	in := genDBInputs(c.seed, ops)
	reads := genDBInputs(c.seed+1000, ops/4+1).series // which series each read asks for
	c.tr.end(sp)
	dep := c.tr.begin("monitor.deploy")
	db, sink, stream := c.newBenchDB("db-query-mix")
	c.tr.end(dep)
	g := valueGen(c.seed*2654435761 + 1)
	// lastAt mirrors what the store must answer: a series recorded within
	// the TTL is known fresh, so a Fresh miss on it is a failed read (and
	// a hit on one outside it a fabricated one).
	lastAt := make([]time.Duration, dbSeries)
	for i := range lastAt {
		lastAt[i] = -1
	}
	done, queries, wrong := 0, uint64(0), uint64(0)
	var acted ages
	sink2 := 0.0
	return &job{
		horizon: time.Duration(ops) * dbTick,
		run: func(t time.Duration) int {
			upto := int(t / dbTick)
			n := upto - done
			for ; done < upto; done++ {
				m := in.measurement(done, &g)
				db.Record(m)
				lastAt[in.series[done]] = m.TakenAt
				if done%4 == 3 {
					s := reads[done/4]
					k := in.keys[s]
					now := m.TakenAt
					queries += 2
					sp := c.tr.begin("manager.query")
					got, ok := db.Fresh(now, k.path, k.metric, dbTTL)
					q, _ := db.Quantile(k.path, k.metric, 0.95)
					c.tr.end(sp)
					sink2 += q
					want := lastAt[s] >= 0 && now-lastAt[s] <= dbTTL
					if ok != want {
						wrong++
					} else if ok {
						acted.add(now, got)
					}
				}
				if done%10_000 == 9_999 {
					db.MarkStale(time.Duration(done)*dbTick, dbTTL)
				}
			}
			return n
		},
		flush:  db.FlushResults,
		close:  func() {},
		stream: stream,
		collect: func(r *result, _ int) {
			dbTotals(r, db, in.keys)
			sinkTotals(r, sink)
			r.attempts = db.Records + queries
			r.c["manager.queries"] = float64(queries)
			r.c["_core.fresh_reads"] = float64(queries / 2)
			r.c["_core.quantile_reads"] = float64(queries / 2)
			r.c["_core.mark_stale_calls"] = float64(ops / 10_000)
			r.c["_core.wrong_reads"] = float64(wrong)
			r.c["senescence_p95_ms"] = percentile(acted, 0.95)
			r.digest += fmt.Sprintf(" queries=%d wrong=%d fresh=%d stale=%d q=%x",
				queries, wrong, len(acted), db.StaleMarked, sink2)
		},
	}, nil
}
