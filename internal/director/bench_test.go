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

// BenchmarkTrapIngest measures the steady-state cost of one trap through a
// flat director: bounded-queue Put, drain, coalesce, deliver. Traps are
// offered in bursts (like a storm) so the consumer drains from a buffered
// queue without parking — the path that must stay allocation-free. Its
// 10 h window never closes a run; TestCoalescerCycleAllocatesNothing holds
// runs opening and closing to the same floor.
func BenchmarkTrapIngest(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	d := New(nw.NewHost("root"), "root", Config{
		QueueCap:       4096,
		TrapProcTime:   time.Nanosecond,
		FlushEvery:     time.Hour,
		CoalesceWindow: 10 * time.Hour, // steady state: every repeat coalesces
	})
	delivered := uint64(0)
	d.OnTrap = func(Trap) { delivered++ }
	d.Start()
	t := Trap{Source: "s", Path: "p", Rising: true, Count: 1}
	// The director's flush timer recurs forever, so the bench advances
	// virtual time in bounded steps rather than draining with Run.
	drain := func() { k.RunUntil(k.Now() + time.Millisecond) }
	// Warm up: first trap opens the coalescing run.
	d.OfferTrap(t)
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.OfferTrap(t)
		if i%1024 == 1023 {
			drain()
		}
	}
	drain()
	if d.Stats.TrapsProcessed == 0 {
		b.Fatal("nothing processed")
	}
	if d.Stats.TrapsDropped > 0 {
		b.Fatalf("dropped %d traps; raise QueueCap above the burst size", d.Stats.TrapsDropped)
	}
}

// BenchmarkDirectorReexport measures one leaf re-export cycle — current
// measurements plus a merged region sketch per metric for a 32-path shard —
// including the parent's ingest of the batch.
func BenchmarkDirectorReexport(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 1)
	root := New(nw.NewHost("root"), "root", Config{
		QueueCap:       4096,
		RecordProcTime: time.Nanosecond,
		FlushEvery:     time.Hour,
		Supervise:      time.Hour,
		WatchdogEvery:  time.Hour,
		Reexport:       time.Hour, // the bench calls reexport directly
	})
	m := newStubMember(k)
	m.Database().EnableSketches(sketch.Thresholds{})
	leaf := NewLeaf(nw.NewHost("leaf"), "leaf", m, root.Cfg)
	root.AddChild(leaf)
	var paths []core.Path
	for i := 0; i < 32; i++ {
		paths = append(paths, core.Path{ID: core.PathID(fmt.Sprintf("p%d", i))})
	}
	root.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.OneWayLatency}})
	root.Start()
	for _, p := range paths {
		for j := 0; j < 8; j++ {
			m.Database().Record(core.Measurement{
				Path: p.ID, Metric: metrics.OneWayLatency,
				Value: float64(j) * 0.01, Quality: core.QualityDirect,
			})
		}
	}
	drain := func() { k.RunUntil(k.Now() + time.Millisecond) }
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaf.reexport(k.Now())
		if i%64 == 63 {
			drain()
		}
	}
	drain()
	if root.Stats.RecordsIn == 0 {
		b.Fatal("root ingested nothing")
	}
}
