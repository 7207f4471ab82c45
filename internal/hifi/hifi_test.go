package hifi

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nttcp"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// allMetrics is the full §4.2 metric set.
var allMetrics = []metrics.Metric{metrics.Throughput, metrics.OneWayLatency, metrics.Reachability}

// smallCfg keeps bursts quick for tests.
func smallCfg() nttcp.Config {
	return nttcp.Config{MsgLen: 1024, InterSend: 5 * time.Millisecond, Count: 8, Timeout: 500 * time.Millisecond}
}

func TestSequentialSweepCoversAllPaths(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	req := core.Request{Paths: h.PathList(), Metrics: allMetrics}
	m.Submit(req)
	m.Start()
	// One sweep: 27 paths x 8 msgs x 5ms ≈ 1.1s + overheads.
	k.RunUntil(30 * time.Second)
	if m.Sweeps < 1 {
		t.Fatal("no sweep completed")
	}
	for _, path := range req.Paths {
		for _, metric := range allMetrics {
			meas, ok := m.Query(path.ID, metric)
			if !ok {
				t.Fatalf("no measurement for (%s, %s)", path.ID, metric)
			}
			if metric == metrics.Reachability && !meas.Reached() {
				t.Fatalf("healthy path unreachable: %s", meas)
			}
			if metric == metrics.Throughput && meas.OK() && meas.Value <= 0 {
				t.Fatalf("throughput = %s", meas)
			}
		}
	}
	if m.DB.Series() != 27*3 {
		t.Fatalf("series = %d, want 81", m.DB.Series())
	}
}

func TestThroughputTracksOfferedRate(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	cfg := nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 16}
	m := New(h.Mgmt, cfg, 1)
	paths := []core.Path{core.NewPath(h.ServerRefs()[0], h.ClientRefs()[0])}
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	m.Start()
	k.RunUntil(10 * time.Second)
	meas, ok := m.Query(paths[0].ID, metrics.Throughput)
	if !ok || !meas.OK() {
		t.Fatalf("measurement: %v %v", meas, ok)
	}
	offered := nttcp.PeakOverheadBps(cfg)
	if rel := metrics.RelErr(meas.Value, offered); rel > 0.1 {
		t.Fatalf("throughput %.0f vs offered %.0f (rel %.3f): s1->c1 runs over FDDI+ATM, plenty of headroom", meas.Value, offered, rel)
	}
}

func TestSequencerVsParallelSweepShape(t *testing.T) {
	// The tradeoff of §5.1.2.1: the sequencer's sweep takes ≈ C·S·T while
	// the parallel monitor's takes ≈ T.
	// Light bursts so even the parallel variant stays below the Ethernet
	// capacity and the comparison isolates scheduling, not saturation.
	lightCfg := nttcp.Config{MsgLen: 256, InterSend: 10 * time.Millisecond, Count: 8, Timeout: time.Second}
	run := func(concurrency int) (time.Duration, int) {
		k := sim.NewKernel()
		defer k.Close()
		h := topo.BuildHiPerD(k, 1)
		m := New(h.Mgmt, lightCfg, concurrency)
		m.Submit(core.Request{Paths: h.PathList(), Metrics: []metrics.Metric{metrics.Throughput}})
		m.Start()
		k.RunUntil(60 * time.Second)
		return m.SweepTime, m.Sweeps
	}
	seqTime, seqSweeps := run(1)
	parTime, parSweeps := run(27)
	if seqSweeps == 0 || parSweeps == 0 {
		t.Fatalf("sweeps: seq %d, par %d", seqSweeps, parSweeps)
	}
	// Single-path burst T ≈ 8 x 5ms = 40ms; sequential ≈ 27·T.
	ratio := float64(seqTime) / float64(parTime)
	if ratio < 5 {
		t.Fatalf("sequential sweep only %.1fx the parallel sweep (seq %v, par %v)", ratio, seqTime, parTime)
	}
}

func TestParallelIsMoreIntrusive(t *testing.T) {
	// Peak load on the wire: the parallel monitor must push the FDDI
	// backbone much harder than the sequencer during a sweep.
	load := func(concurrency int) float64 {
		k := sim.NewKernel()
		defer k.Close()
		h := topo.BuildHiPerD(k, 1)
		m := New(h.Mgmt, nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 32}, concurrency)
		m.Submit(core.Request{Paths: h.PathList(), Metrics: []metrics.Metric{metrics.Throughput}})
		m.Start()
		before := h.FDDI.Stats().Octets
		k.RunUntil(2 * time.Second)
		return float64(h.FDDI.Stats().Octets-before) * 8 / 2 // bits/s over the window
	}
	seq := load(1)
	par := load(27)
	if par < 4*seq {
		t.Fatalf("parallel backbone load %.2g not >> sequential %.2g", par, seq)
	}
}

func TestAnalyticPeakOverheadMatchesPaper(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond}, 27)
	got := m.PeakOverheadBps(27)
	if got < 58e6 || got > 60e6 {
		t.Fatalf("27-path peak = %.3g, want ≈59 Mb/s", got)
	}
	if got1 := m.PeakOverheadBps(1); got1 < 2.1e6 || got1 > 2.3e6 {
		t.Fatalf("1-path peak = %.3g, want ≈2.18 Mb/s", got1)
	}
}

func TestFailedHostReportedUnreachable(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:2])
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	k.At(0, func() { h.Clients[0].SetUp(false) })
	k.RunUntil(20 * time.Second)
	dead, ok := m.Query(paths[0].ID, metrics.Reachability)
	if !ok || dead.Reached() {
		t.Fatalf("dead client path: %v", dead)
	}
	if tp, _ := m.Query(paths[0].ID, metrics.Throughput); tp.OK() {
		t.Fatalf("throughput to dead client reported OK: %v", tp)
	}
	alive, _ := m.Query(paths[1].ID, metrics.Reachability)
	if !alive.Reached() {
		t.Fatalf("healthy client path unreachable: %v", alive)
	}
	// Last-known-value reporting still serves the pre-failure data need:
	// nothing here since it was dead from t=0, so Current == failure.
	if _, ok := m.LastKnown(paths[0].ID, metrics.Throughput); ok {
		t.Fatal("last-known throughput exists for never-alive path")
	}
}

func TestAsyncReporting(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:1])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}, Mode: core.ReportAsync})
	m.Start()
	var got []core.Measurement
	h.Mgmt.Spawn("manager", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			meas, ok := m.Reports().Get(p, 30*time.Second)
			if !ok {
				return
			}
			got = append(got, meas)
		}
		m.Stop()
	})
	k.RunUntil(60 * time.Second)
	if len(got) != 3 {
		t.Fatalf("async reports = %d, want 3", len(got))
	}
	for _, meas := range got {
		if meas.Path != paths[0].ID || !meas.Reached() {
			t.Fatalf("bad report %v", meas)
		}
	}
}

func TestSenescenceGrowsWithPathCount(t *testing.T) {
	// §5.1.2.1: minimum time between samples of a given path is C·S·T for
	// the sequencer. More paths -> staler data.
	age := func(nClients int) time.Duration {
		k := sim.NewKernel()
		defer k.Close()
		h := topo.BuildHiPerD(k, 1)
		m := New(h.Mgmt, smallCfg(), 1)
		paths := core.CrossProductPaths(h.ServerRefs(), h.ClientRefs()[:nClients])
		m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
		m.Start()
		k.RunUntil(60 * time.Second)
		// Age of path 0's data right after its next refresh is ~sweep time.
		return m.SweepTime
	}
	small := age(2)
	large := age(9)
	if large < 3*small {
		t.Fatalf("sweep time did not scale with paths: %v vs %v", small, large)
	}
}

func TestStopCeasesCollection(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	m.Submit(core.Request{Paths: h.PathList()[:2], Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	k.RunUntil(5 * time.Second)
	m.Stop()
	k.RunUntil(6 * time.Second)
	published := m.Published
	k.RunUntil(20 * time.Second)
	if m.Published != published {
		t.Fatalf("monitor kept publishing after Stop: %d -> %d", published, m.Published)
	}
}

func TestMultiHopPathMeasuredEndToEnd(t *testing.T) {
	// A 3-hop path (server -> relay process -> client) is measured
	// end-to-end between its first and last hops; the relay hop names the
	// application chain but the traffic takes the real network route.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	path := core.NewPath(
		core.ProcessRef{Host: "s1", Process: "rtds"},
		core.ProcessRef{Host: "w-fddi-1", Process: "relay"},
		core.ProcessRef{Host: "c1", Process: "client"},
	)
	m.Submit(core.Request{Paths: []core.Path{path}, Metrics: allMetrics})
	m.Start()
	k.RunUntil(10 * time.Second)
	for _, metric := range allMetrics {
		meas, ok := m.Query(path.ID, metric)
		if !ok {
			t.Fatalf("no measurement for (%s, %s)", path.ID, metric)
		}
		if metric == metrics.Reachability && !meas.Reached() {
			t.Fatalf("3-hop path unreachable: %v", meas)
		}
	}
}

func TestMeasurePathOnDemand(t *testing.T) {
	// The hybrid monitor's entry point: a one-shot targeted measurement
	// without starting the sweep loop.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 0) // concurrency < 1 clamps to 1
	path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[0])
	m.Submit(core.Request{Paths: []core.Path{path}, Metrics: allMetrics})
	var out []core.Measurement
	h.Mgmt.Spawn("oneshot", func(p *sim.Proc) {
		out = m.MeasurePath(p, path, allMetrics)
	})
	k.RunUntil(10 * time.Second)
	if len(out) != 3 {
		t.Fatalf("measurements = %d", len(out))
	}
	for _, meas := range out {
		if meas.Metric == metrics.Reachability && !meas.Reached() {
			t.Fatalf("on-demand: %v", meas)
		}
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
	if par := New(h.Mgmt, smallCfg(), 27); par.String() == m.String() {
		t.Fatal("mode not reflected in String()")
	}
}

func TestMeasurePathWithoutSimulator(t *testing.T) {
	// A path whose origin was never provisioned fails cleanly for every
	// requested metric.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	orphan := core.NewPath(
		core.ProcessRef{Host: "w-eth-1", Process: "x"},
		core.ProcessRef{Host: "c1", Process: "y"},
	)
	var out []core.Measurement
	h.Mgmt.Spawn("oneshot", func(p *sim.Proc) {
		out = m.MeasurePath(p, orphan, allMetrics)
	})
	k.RunUntil(5 * time.Second)
	if len(out) != 3 {
		t.Fatalf("measurements = %d", len(out))
	}
	for _, meas := range out {
		if meas.OK() {
			t.Fatalf("unprovisioned path measurement succeeded: %v", meas)
		}
	}
}

func TestStartIdempotentAndEmptyRequest(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	m.Start()
	m.Start() // second call is a no-op, not a second collector
	k.RunUntil(2 * time.Second)
	if m.Sweeps != 0 {
		t.Fatalf("sweeps with no request = %d", m.Sweeps)
	}
}

func TestBreakerSkipsPathsToDeadHost(t *testing.T) {
	// With the resilience layer on, a host that stops answering trips its
	// breaker after FailThreshold sweeps; from then on the sequencer
	// fast-fails its paths (reachability 0, no NTTCP window burned)
	// until the half-open probe finds it alive again.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	m.Breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
		FailThreshold: 1, OpenFor: 3 * time.Second,
	})
	path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[0])
	m.Submit(core.Request{Paths: []core.Path{path}, Metrics: allMetrics})
	m.Start()
	h.Net.Node("c1").SetUp(false)
	k.RunUntil(10 * time.Second)
	if m.SkippedPaths == 0 {
		t.Fatal("no path measurements were fast-failed by the breaker")
	}
	br := m.Breakers.For("c1")
	if br.Stats.Opens == 0 || br.Stats.FastFails == 0 {
		t.Fatalf("breaker never engaged: %+v", br.Stats)
	}
	// A skipped path must still read as a successful reachability-0
	// observation, with the other metrics failed, not silent.
	meas, ok := m.Query(path.ID, metrics.Reachability)
	if !ok || !meas.OK() || meas.Value != 0 {
		t.Fatalf("reachability under open breaker = %v (ok=%v)", meas, ok)
	}
	if tp, ok := m.Query(path.ID, metrics.Throughput); !ok || tp.OK() {
		t.Fatalf("throughput under open breaker = %v (ok=%v), want error", tp, ok)
	}
}

func TestBreakerRecoversWhenHostReturns(t *testing.T) {
	// The half-open probe must re-admit a restored host: reachability goes
	// 1 -> 0 -> 1 across the outage, and the breaker records a close.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	m.Breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
		FailThreshold: 1, OpenFor: 2 * time.Second,
	})
	path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[0])
	m.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	k.At(4*time.Second, func() { h.Net.Node("c1").SetUp(false) })
	k.At(10*time.Second, func() { h.Net.Node("c1").SetUp(true) })
	// While the breaker is open a sweep takes no virtual time and the
	// sequencer runs at its 10 ms beat, which outruns the database's
	// history ring; read the current value as it changes instead.
	var phases []float64
	k.Every(100*time.Millisecond, func() {
		if ms, ok := m.Query(path.ID, metrics.Reachability); ok &&
			(len(phases) == 0 || phases[len(phases)-1] != ms.Value) {
			phases = append(phases, ms.Value)
		}
	})
	k.RunUntil(20 * time.Second)
	want := []float64{1, 0, 1}
	if len(phases) != len(want) {
		t.Fatalf("reachability phases = %v, want %v", phases, want)
	}
	if br := m.Breakers.For("c1"); br.Stats.Closes == 0 {
		t.Fatalf("breaker never closed after recovery: %+v", br.Stats)
	}
}

// TestTelemetryReadsOwnersFields: with a dead host behind a breaker the
// sequencer sweeps, samples and skips; every published instrument must be
// the monitor's (or its database's) own field, read when asked.
func TestTelemetryReadsOwnersFields(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	m.Breakers = resilience.NewBreakerSet(resilience.BreakerConfig{FailThreshold: 1, OpenFor: 3 * time.Second})
	m.EnableTelemetry(nil, nil) // a nil registry is a no-op
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, telemetry.NewTracer("hifi", 64))
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:2])
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	h.Net.Node("c1").SetUp(false)
	k.RunUntil(10 * time.Second)

	if m.Sweeps == 0 || m.Samples == 0 || m.SkippedPaths == 0 || m.SweepOverheadBps == 0 {
		t.Fatalf("scenario drifted: sweeps %d samples %d skipped %d overhead %g",
			m.Sweeps, m.Samples, m.SkippedPaths, m.SweepOverheadBps)
	}
	fp := m.DB.Footprint()
	counters := map[string]uint64{
		"hifi.sweeps":          uint64(m.Sweeps),
		"hifi.samples":         m.Samples,
		"hifi.skipped_paths":   m.SkippedPaths,
		"hifi.db.records":      m.DB.Records,
		"hifi.db.stale_marks":  m.DB.StaleMarked,
		"hifi.db.fresh_hits":   m.DB.FreshHits,
		"hifi.db.fresh_misses": m.DB.FreshMisses,
	}
	gauges := map[string]float64{
		"hifi.sweep_overhead_bps":  m.SweepOverheadBps,
		"hifi.db.series":           float64(fp.Series),
		"hifi.db.retained_samples": float64(fp.Retained),
		"hifi.db.sketch_bytes":     float64(fp.SketchBytes),
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range gauges {
		if got := reg.Gauge(name).Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got, want := reg.Histogram("hifi.sweep_s", nil).Count(), uint64(m.Sweeps); got != want {
		t.Errorf("hifi.sweep_s observed %d sweeps, want %d", got, want)
	}
	if n := len(counters) + len(gauges) + 1; reg.Len() != n {
		t.Errorf("%d instruments registered, %d checked against an owner", reg.Len(), n)
	}
}
