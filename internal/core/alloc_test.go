package core

import (
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
