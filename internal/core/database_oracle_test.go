package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sketch"
)

// oracleDB is the naive store Database is checked against: it keeps every
// Measurement ever recorded, per series, and answers each query by reading
// that list, so it shares none of Database's ring, spare-slot or batching
// bookkeeping.
type oracleDB struct {
	depth   int
	all     map[dbKey][]Measurement
	stale   map[dbKey]bool
	sketch  map[dbKey]*sketch.Sketch // nil map: sketches off
	batch   int                      // results batch size; 0: results off
	pending map[dbKey][]float64      // successful values since the last batch
	batches []sinkBatch

	records, hits, misses, marked uint64
}

func newOracleDB(depth int, sketches bool, batch int) *oracleDB {
	o := &oracleDB{depth: depth, all: map[dbKey][]Measurement{}, stale: map[dbKey]bool{},
		batch: batch, pending: map[dbKey][]float64{}}
	if sketches {
		o.sketch = map[dbKey]*sketch.Sketch{}
	}
	return o
}

func (o *oracleDB) record(m Measurement) {
	k := dbKey{m.Path, m.Metric}
	o.all[k] = append(o.all[k], m)
	o.stale[k] = false
	o.records++
	if !m.OK() {
		return
	}
	if o.sketch != nil {
		if o.sketch[k] == nil {
			o.sketch[k] = &sketch.Sketch{}
		}
		o.sketch[k].Update(m.Value)
	}
	if o.batch > 0 {
		o.pending[k] = append(o.pending[k], m.Value)
		if len(o.pending[k]) == o.batch {
			o.closeBatch(k)
		}
	}
}

// closeBatch emits k's pending values, stamped with the TakenAt of the
// newest successful sample among them.
func (o *oracleDB) closeBatch(k dbKey) {
	vals := o.pending[k]
	if len(vals) == 0 {
		return
	}
	last, _ := o.lastKnown(k)
	o.batches = append(o.batches, sinkBatch{string(k.path), k.metric.String(), k.metric.Unit(),
		int64(last.TakenAt), vals})
	o.pending[k] = nil
}

func (o *oracleDB) flush() {
	keys := make([]dbKey, 0, len(o.pending))
	for k := range o.pending {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b dbKey) int {
		if a.path != b.path {
			if a.path < b.path {
				return -1
			}
			return 1
		}
		return int(a.metric) - int(b.metric)
	})
	for _, k := range keys {
		o.closeBatch(k)
	}
}

func (o *oracleDB) current(k dbKey) (Measurement, bool) {
	ms := o.all[k]
	if len(ms) == 0 {
		return Measurement{}, false
	}
	return ms[len(ms)-1], true
}

func (o *oracleDB) lastKnown(k dbKey) (Measurement, bool) {
	ms := o.all[k]
	for i := len(ms) - 1; i >= 0; i-- {
		if ms[i].OK() {
			return ms[i], true
		}
	}
	return Measurement{}, false
}

func (o *oracleDB) fresh(now time.Duration, k dbKey, ttl time.Duration) (Measurement, bool) {
	cur, ok := o.current(k)
	if !ok || o.stale[k] || ttl > 0 && now-cur.TakenAt > ttl {
		o.misses++
		return Measurement{}, false
	}
	o.hits++
	return cur, true
}

func (o *oracleDB) markStale(now, ttl time.Duration) int {
	n := 0
	for k, ms := range o.all {
		if !o.stale[k] && now-ms[len(ms)-1].TakenAt > ttl {
			o.stale[k] = true
			n++
		}
	}
	o.marked += uint64(n)
	return n
}

// history is what EachHistory(k, n) visits: the newest min(n, retained)
// of the last depth samples, oldest first.
func (o *oracleDB) history(k dbKey, n int) []Measurement {
	ms := o.all[k]
	if len(ms) > o.depth {
		ms = ms[len(ms)-o.depth:]
	}
	if n > 0 && n < len(ms) {
		ms = ms[len(ms)-n:]
	}
	return ms
}

func (o *oracleDB) retained() int {
	n := 0
	for k := range o.all {
		n += len(o.history(k, 0))
	}
	return n
}

// oracleKeys are the four series a fuzz input addresses.
var oracleKeys = [4]dbKey{
	{"a->b", metrics.Throughput}, {"a->b", metrics.OneWayLatency},
	{"b->c", metrics.Throughput}, {"c->d", metrics.Reachability},
}

// oracleErrs are the Err values a recorded sample takes: half succeed.
var oracleErrs = [4]string{"", "", "timeout", "no route"}

// FuzzDatabaseOracle drives a Database and the naive oracleDB with the same
// operations and requires the same answer to every query, Path and Metric
// included. The first byte picks the history depth (1, 4 or 64), whether
// sketches are on and the results batch size (0 is off); then each op is a
// byte and its operands:
//
//	0–2  Record: key, time step, lag behind now, value, err, quality
//	3    Current, LastKnown and Senescence of key
//	4    Fresh of key with a ttl (0 is no age bound)
//	5    MarkStale with a ttl
//	6    EachHistory of key for n samples, stopping after stop visits
//	7    FlushResults
func FuzzDatabaseOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0x12, 0, 0, 1, 0, 9, 0, 0, 3, 0, 6, 0, 0, 0, 4, 0, 0})
	for _, first := range []byte{0x00, 0x31, 0x5a, 0x13, 0x72, 0xe2, 0x02} {
		// A long deterministic mix: every series past depth 64, with
		// failures, stale marks and flushes between queries.
		seed := []byte{first}
		x := uint32(first) + 1
		for i := 0; i < 8000; i++ {
			x = x*1664525 + 1013904223
			seed = append(seed, byte(x>>24))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		depth := [3]int{1, 4, 64}[int(data[0]&0x0f)%3]
		sketches := data[0]&0x10 != 0
		batch := int(data[0] >> 5) // 0–7
		sink := &recSink{}
		db := NewDatabase()
		db.HistoryDepth = depth
		if sketches {
			db.EnableSketches(sketch.Thresholds{})
		}
		if batch > 0 {
			db.EnableResults(sink, batch)
		}
		o := newOracleDB(depth, sketches, batch)
		in := data[1:]
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		now := time.Duration(0)
		for len(in) > 0 {
			op := next() % 8
			k := oracleKeys[next()%len(oracleKeys)]
			switch op {
			case 0, 1, 2:
				now += time.Duration(next()) * time.Millisecond
				v := float64(int8(next())) / 4
				if v == -32 {
					v = math.Inf(1) // a sketch drops it; the store keeps it
				}
				m := Measurement{Path: k.path, Metric: k.metric, Value: v}
				m.TakenAt = now - time.Duration(next())*time.Millisecond
				m.Err = oracleErrs[next()%len(oracleErrs)]
				m.Quality = Quality(next() % 2)
				db.Record(m)
				o.record(m)
			case 3:
				gm, gok := db.Current(k.path, k.metric)
				wm, wok := o.current(k)
				if gm != wm || gok != wok {
					t.Fatalf("Current(%v) = %v, %v; oracle %v, %v", k, gm, gok, wm, wok)
				}
				gm, gok = db.LastKnown(k.path, k.metric)
				wm, wok = o.lastKnown(k)
				if gm != wm || gok != wok {
					t.Fatalf("LastKnown(%v) = %v, %v; oracle %v, %v", k, gm, gok, wm, wok)
				}
				ga, gok := db.Senescence(now, k.path, k.metric)
				if wok = len(o.all[k]) > 0; gok != wok || wok && ga != now-o.all[k][len(o.all[k])-1].TakenAt {
					t.Fatalf("Senescence(%v) = %v, %v; series known %v", k, ga, gok, wok)
				}
			case 4:
				ttl := time.Duration(next()) * time.Millisecond
				gm, gok := db.Fresh(now, k.path, k.metric, ttl)
				wm, wok := o.fresh(now, k, ttl)
				if gm != wm || gok != wok {
					t.Fatalf("Fresh(%v, ttl %v) = %v, %v; oracle %v, %v", k, ttl, gm, gok, wm, wok)
				}
			case 5:
				ttl := time.Duration(next()) * time.Millisecond
				if g, w := db.MarkStale(now, ttl), o.markStale(now, ttl); g != w {
					t.Fatalf("MarkStale(ttl %v) marked %d; oracle %d", ttl, g, w)
				}
			case 6:
				n, stop := next()%80, next()%80
				var got []Measurement
				db.EachHistory(k.path, k.metric, n, func(m Measurement) bool {
					got = append(got, m)
					return len(got) != stop
				})
				want := o.history(k, n)
				if stop > 0 && stop < len(want) {
					want = want[:stop]
				}
				if !slices.Equal(got, want) {
					t.Fatalf("EachHistory(%v, %d) stopping at %d = %v; oracle %v", k, n, stop, got, want)
				}
			case 7:
				if err := db.FlushResults(); err != nil {
					t.Fatal(err)
				}
				o.flush()
			}
			if sketches {
				gs, gok := db.SketchSummary(k.path, k.metric)
				var ws sketch.Summary
				wok := o.sketch[k] != nil && o.sketch[k].Count() > 0
				if wok {
					ws = o.sketch[k].Summary()
				}
				if gok != wok || !reflect.DeepEqual(gs, ws) {
					t.Fatalf("SketchSummary(%v) = %+v, %v; oracle %+v, %v", k, gs, gok, ws, wok)
				}
			}
		}
		if err := db.FlushResults(); err != nil {
			t.Fatal(err)
		}
		o.flush()
		if !reflect.DeepEqual(sink.batches, o.batches) {
			t.Fatalf("results batches %+v; oracle %+v", sink.batches, o.batches)
		}
		fp := db.Footprint()
		if db.Records != o.records || db.FreshHits != o.hits || db.FreshMisses != o.misses ||
			db.StaleMarked != o.marked || fp.Series != len(o.all) || fp.Retained != o.retained() {
			t.Fatalf("counts: records %d hits %d misses %d marked %d, %+v; oracle %d %d %d %d, %d series, %d retained",
				db.Records, db.FreshHits, db.FreshMisses, db.StaleMarked, fp,
				o.records, o.hits, o.misses, o.marked, len(o.all), o.retained())
		}
	})
}
