package director

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// TestCoalescerCycleAllocatesNothing: a warm coalescer opens, absorbs into,
// closes and reopens runs without allocating — window-expiry flushes and
// direction flips included, not only the steady repeat BenchmarkTrapIngest
// times.
func TestCoalescerCycleAllocatesNothing(t *testing.T) {
	const window = 100 * time.Millisecond
	c := NewCoalescer(window)
	keys := []Trap{trap("a", "p", true), trap("b", "p", true), trap("a", "q", true)}
	now := time.Duration(0)
	cycle := func() {
		for _, k := range keys {
			c.Offer(k, now) // leading edge
			for i := 0; i < 3; i++ {
				c.Offer(k, now+time.Millisecond) // repeats
			}
		}
		now += window
		c.Flush(now) // window expiry closes every run
		for _, k := range keys {
			c.Offer(k, now) // reopen
			c.Offer(k, now)
			k.Rising = !k.Rising
			c.Offer(k, now) // direction flip: close, then open
		}
		now += window
		c.Flush(now)
		c.Take()
	}
	cycle() // warm: the map, the order and emit buffers and the spare runs
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm coalescer cycle allocates %v objects, want 0", n)
	}
	if len(c.pending) != 0 || len(c.spare) != len(keys) {
		t.Fatalf("scenario drifted: %d pending runs, %d spare, want 0 and %d", len(c.pending), len(c.spare), len(keys))
	}
}

// reexportTree is a root over one leaf whose stub member holds sketched
// data for 4 paths × 2 metrics. No timer re-exports (the tests call
// reexport themselves) or flushes within an hour.
func reexportTree(t *testing.T, cfg Config) (*sim.Kernel, *Director, *Director, []metrics.Metric) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 1)
	cfg.FlushEvery, cfg.Supervise, cfg.WatchdogEvery, cfg.Reexport = time.Hour, time.Hour, time.Hour, time.Hour
	root := New(nw.NewHost("root"), "root", cfg)
	m := newStubMember(k)
	m.Database().EnableSketches(sketch.Thresholds{})
	leaf := NewLeaf(nw.NewHost("leaf"), "leaf", m, cfg)
	root.AddChild(leaf)
	var paths []core.Path
	for i := 0; i < 4; i++ {
		paths = append(paths, core.Path{ID: core.PathID(fmt.Sprintf("p%d", i))})
	}
	mets := []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}
	root.Submit(core.Request{Paths: paths, Metrics: mets})
	record(leaf, 0, 2*sketch.BufCap)
	return k, root, leaf, mets
}

// record writes n samples per assigned (path, metric) series of leaf, their
// values starting at from.
func record(leaf *Director, from, n int) {
	for _, p := range leaf.assigned {
		for _, met := range leaf.metricsL {
			for j := from; j < from+n; j++ {
				leaf.DB.Record(core.Measurement{Path: p.ID, Metric: met, Value: float64(j%97) * 0.01})
			}
		}
	}
}

// TestReexportAllocatesNothing: once warm, a leaf's re-export and its
// parent's ingest of it allocate nothing — the batch is built in buffers
// the parent handed back, its region sketches merged in place.
func TestReexportAllocatesNothing(t *testing.T) {
	k, root, leaf, _ := reexportTree(t, Config{QueueCap: 64, RecordProcTime: time.Nanosecond})
	root.Start()
	cycle := func() {
		leaf.reexport(k.Now())
		k.RunUntil(k.Now() + time.Millisecond)
	}
	cycle()
	before := root.Stats.BatchesIn
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("a warm re-export and ingest allocate %v objects, want 0", n)
	}
	if got := root.Stats.BatchesIn - before; got != 101 || root.Stats.RecordsIn != 102*8 || len(leaf.sketches) != 2 {
		t.Fatalf("scenario drifted: %d batches, %d records ingested, %d region sketches kept",
			got, root.Stats.RecordsIn, len(leaf.sketches))
	}
}

// TestUndeliveredReexportAllocatesNothing: a batch the parent drops at its
// full record queue, or loses because it is down, comes back to the child
// at once, so neither costs an allocation once warm.
func TestUndeliveredReexportAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(root *Director)
		lost func(s Stats) uint64
	}{
		// The root is never started, so nothing drains its 4-deep queue.
		{"dropped", func(*Director) {}, func(s Stats) uint64 { return s.BatchesDropped }},
		{"lost", func(root *Director) { root.Host.SetUp(false) }, func(s Stats) uint64 { return s.BatchesLost }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, root, leaf, _ := reexportTree(t, Config{QueueCap: 4})
			tc.stop(root)
			for i := 0; i < 5; i++ {
				leaf.reexport(k.Now())
			}
			before := tc.lost(root.Stats)
			if n := testing.AllocsPerRun(100, func() { leaf.reexport(k.Now()) }); n != 0 {
				t.Fatalf("a warm %s re-export allocates %v objects, want 0", tc.name, n)
			}
			if got := tc.lost(root.Stats) - before; got != 101 {
				t.Fatalf("scenario drifted: %d of 101 batches %s", got, tc.name)
			}
		})
	}
}

// TestKeptRegionSketchOwnsItsCopy: the parent keeps a copy of a child's
// latest region sketches, never the batch buffer the child builds its
// next re-export in. Two batches from one child park in the parent's queue
// at once and are ingested; the child then re-exports new data into a
// handed-back buffer, and the parent's aggregate must still equal a fresh
// merge of what the second batch carried.
func TestKeptRegionSketchOwnsItsCopy(t *testing.T) {
	k, root, leaf, mets := reexportTree(t, Config{QueueCap: 64, RecordProcTime: time.Nanosecond})
	root.Start()
	freshMerge := func(met metrics.Metric) sketch.Sketch {
		var region, agg sketch.Sketch
		for _, p := range leaf.assigned {
			leaf.DB.MergeSketchInto(&region, p.ID, met)
		}
		agg.Merge(&region)
		return agg
	}
	leaf.reexport(k.Now())
	record(leaf, 3, sketch.BufCap)
	leaf.reexport(k.Now())
	if root.recQ.Len() != 2 {
		t.Fatalf("scenario drifted: %d batches parked, want 2", root.recQ.Len())
	}
	want := map[metrics.Metric]sketch.Sketch{}
	for _, met := range mets {
		want[met] = freshMerge(met)
	}
	k.RunUntil(k.Now() + time.Millisecond)
	if root.Stats.BatchesIn != 2 || len(leaf.spare) != 2 {
		t.Fatalf("scenario drifted: %d batches ingested, %d handed back, want 2 and 2", root.Stats.BatchesIn, len(leaf.spare))
	}
	record(leaf, 11, 3*sketch.BufCap)
	leaf.reexport(k.Now()) // built in the buffer of the batch ingested last
	for _, met := range mets {
		got, ok := root.AggregateSketch(met)
		if w := want[met]; !ok || got != w {
			t.Fatalf("%v: the parent's kept region sketch changed with the child's next batch (count %d, want %d)",
				met, got.Count(), w.Count())
		}
		if fresh := freshMerge(met); fresh == want[met] {
			t.Fatalf("%v: scenario drifted: the third batch carries the second's data", met)
		}
	}
}
