package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sketch"
	"repro/internal/telemetry"
)

// countSink counts the batches it is offered and keeps none of them.
type countSink struct{ batches int }

func (s *countSink) WriteBatch(batch, metric, unit string, atNS int64, samples []float64) error {
	s.batches++
	return nil
}

// TestRecordAllocatesNothing: once its series exist, Record allocates
// nothing — on a bare database, and with telemetry, sketches and results
// batching all on, sketch folds and batch hand-offs included.
func TestRecordAllocatesNothing(t *testing.T) {
	paths := []PathID{"a->b", "b->c", "c->d", "d->e"}
	sink := &countSink{}
	for _, tc := range []struct {
		name   string
		enable func(*Database)
	}{
		{"bare", func(*Database) {}},
		{"telemetry, sketches and results", func(db *Database) {
			db.EnableTelemetry(telemetry.NewRegistry(), "db")
			db.EnableSketches(sketch.Thresholds{})
			db.EnableResults(sink, 16)
		}},
	} {
		db := NewDatabase()
		tc.enable(db)
		i := 0
		record := func() {
			for j := 0; j < 300; j++ {
				db.Record(Measurement{Path: paths[i%len(paths)], Metric: metrics.Throughput,
					Value: float64(i), TakenAt: time.Duration(i) * time.Microsecond})
				i++
			}
		}
		record() // the first Record of each series creates it
		if n := testing.AllocsPerRun(20, record); n != 0 {
			t.Errorf("%s: 300 Records on 4 warm series allocate %v objects, want 0", tc.name, n)
		}
		if db.Records != uint64(i) {
			t.Errorf("%s: %d records counted, want %d", tc.name, db.Records, i)
		}
	}
	if want := 22 * 300 / 16; sink.batches != want {
		t.Errorf("results sink saw %d batches, want %d", sink.batches, want)
	}
}

// TestNewSeriesAllocations: the first Record of a series allocates the
// series (with its sketch when sketches are on), its ring, and its results
// buffer when results are on; nothing else. With both on, at the default
// depth, that is 2,304 + 2,688 + 128 B in size classes: the series, its
// sketch and the sketch's read cache fit one 2,304 B class only while
// dbSeries stays at most 80 B. Without sketches the series is one 80 B
// object: the read cache belongs to the sketch.
func TestNewSeriesAllocations(t *testing.T) {
	for _, tc := range []struct {
		name              string
		sketches, results bool
		objects           float64
		bytes             uint64
	}{
		{"bare", false, false, 2, 80 + 2688},
		{"sketches", true, false, 2, 2304 + 2688},
		{"results", false, true, 3, 80 + 2688 + 128},
		{"sketches and results", true, true, 3, 2304 + 2688 + 128},
	} {
		db := NewDatabase()
		if tc.sketches {
			db.EnableSketches(sketch.Thresholds{})
		}
		if tc.results {
			db.EnableResults(&countSink{}, 16)
		}
		paths := make([]PathID, 8)
		for j := range paths {
			paths[j] = PathID(fmt.Sprint(j))
		}
		i := 0
		newSeries := func() {
			db.Record(Measurement{Path: paths[i], Metric: metrics.Throughput, Value: 1})
			i++
		}
		newSeries() // the map's first group; up to 8 series fit it
		// One run each, so AllocsPerRun's average cannot round an extra
		// object away.
		if n := testing.AllocsPerRun(1, newSeries); n != tc.objects {
			t.Errorf("%s: a new series allocates %v objects, want %v", tc.name, n, tc.objects)
		}
		if b := bytesPerRun(newSeries); b != tc.bytes {
			t.Errorf("%s: a new series allocates %d B, want %d", tc.name, b, tc.bytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes, over one run after a
// warm-up: the heap bytes f allocates, counted by size class.
func bytesPerRun(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestQuantileAllocatesNothing: on a warm 1,024-series store, the
// db-query-mix unit — four Records and one Quantile, which sorts and folds
// through the series' View into stack scratch — allocates nothing.
func TestQuantileAllocatesNothing(t *testing.T) {
	m := newMixedStore()
	acc := 0.0
	if n := testing.AllocsPerRun(20, func() {
		for j := 0; j < 250; j++ {
			acc += m.step()
		}
	}); n != 0 {
		t.Fatalf("250 × (4 Records + 1 Quantile) allocate %v objects, want 0", n)
	}
	if acc <= 0 {
		t.Fatalf("quantiles summed to %v", acc)
	}
}

// TestCrossProductPathsAllocations: an S × C path list costs S·C + 2
// objects — the path slice, one hop array all paths share, and each
// path's ID.
func TestCrossProductPathsAllocations(t *testing.T) {
	for _, sc := range [][2]int{{1, 1}, {3, 9}, {4, 2}} {
		servers, clients := make([]ProcessRef, sc[0]), make([]ProcessRef, sc[1])
		for i := range servers {
			servers[i] = ProcessRef{Host: "s", Process: "rtds-server"}
		}
		for i := range clients {
			clients[i] = ProcessRef{Host: "c", Process: "rtds-client"}
		}
		want := float64(sc[0]*sc[1] + 2)
		if n := testing.AllocsPerRun(100, func() { CrossProductPaths(servers, clients) }); n != want {
			t.Fatalf("%d × %d paths: %v allocations, want %v", sc[0], sc[1], n, want)
		}
	}
}
