package hifi

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
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

// TestAsyncReporting: a subscriber streams the monitor's measurements
// through the publish hook into its own queue and reads them as they come.
func TestAsyncReporting(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	reports := sim.NewQueue[core.Measurement](k, 0)
	m.OnPublish = func(meas core.Measurement) { reports.Put(meas) }
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:1])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	var got []core.Measurement
	h.Mgmt.Spawn("manager", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			meas, ok := reports.Get(p, 30*time.Second)
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
	records := m.DB.Records
	k.RunUntil(20 * time.Second)
	if m.DB.Records != records {
		t.Fatalf("monitor kept publishing after Stop: %d -> %d", records, m.DB.Records)
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

// TestTelemetryReadsOwnersFields: with one host dead the sequencer sweeps
// and samples both paths; every published instrument must be the monitor's
// (or its database's) own field, read when asked.
func TestTelemetryReadsOwnersFields(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	m.EnableTelemetry(nil, nil) // a nil registry is a no-op
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, telemetry.NewTracer("hifi", 64))
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:2])
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	h.Net.Node("c1").SetUp(false)
	k.RunUntil(10 * time.Second)

	if m.Sweeps == 0 || m.Samples == 0 || m.SweepOverheadBps == 0 {
		t.Fatalf("scenario drifted: sweeps %d samples %d overhead %g",
			m.Sweeps, m.Samples, m.SweepOverheadBps)
	}
	fp := m.DB.Footprint()
	counters := map[string]uint64{
		"hifi.sweeps":          uint64(m.Sweeps),
		"hifi.samples":         m.Samples,
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

// sweepRig drives sweeps of a monitor over four measured paths and an
// invalid one on the HiPer-D testbed, one sweep per round.
type sweepRig struct {
	m        *Monitor
	measured []core.Path
	sweeps   int
	round    func() // one sweep, run to its end
}

func newSweepRig(tb testing.TB, concurrency int) *sweepRig {
	k := sim.NewKernel()
	tb.Cleanup(k.Close)
	h := topo.BuildHiPerD(k, 1)
	srv, cli := h.ServerRefs(), h.ClientRefs()
	r := &sweepRig{
		m: New(h.Mgmt, smallCfg(), concurrency),
		measured: []core.Path{
			core.NewPath(srv[0], cli[0]),
			core.NewPath(srv[1], cli[0]),
			core.NewPath(srv[0], cli[1]),
			core.NewPath(srv[1], cli[1]),
		},
	}
	invalid := core.Path{ID: "invalid", Hops: []core.ProcessRef{srv[0]}}
	req := core.Request{
		Paths:   append(append([]core.Path{}, r.measured...), invalid),
		Metrics: allMetrics,
	}
	r.m.Submit(req)
	trigger := sim.NewQueue[struct{}](k, 0)
	h.Mgmt.Spawn("sequencer", func(p *sim.Proc) {
		for {
			trigger.Get(p, -1)
			r.m.sweep(p, req, telemetry.Span{})
			r.sweeps++
		}
	})
	// A sweep is four bursts of 8 messages 5 ms apart: well inside 2 s.
	r.round = func() {
		trigger.Put(struct{}{})
		k.RunUntil(k.Now() + 2*time.Second)
	}
	return r
}

// warmSweepAllocs runs sweeps at the given concurrency, each to its end,
// and returns what a warm sweep allocates.
func warmSweepAllocs(t *testing.T, concurrency int) float64 {
	r := newSweepRig(t, concurrency)
	m := r.m
	r.round()
	r.round()
	n := testing.AllocsPerRun(10, r.round)
	if r.sweeps != 2+11 {
		t.Fatalf("concurrency %d: %d sweeps completed, want 13", concurrency, r.sweeps)
	}
	if m.Samples != 13*uint64(len(r.measured)) {
		t.Fatalf("concurrency %d: %d samples over 13 sweeps, want %d", concurrency, m.Samples, 13*len(r.measured))
	}
	for _, path := range r.measured {
		if meas, ok := m.Query(path.ID, metrics.Throughput); !ok || !meas.OK() {
			t.Fatalf("concurrency %d: %s throughput %v, %v", concurrency, path.ID, meas, ok)
		}
	}
	// Between sweeps every worker is idle; a sweep never spawns one too many.
	if want := min(concurrency, len(r.measured)); concurrency > 1 && m.idle != want {
		t.Fatalf("concurrency %d: %d workers, want %d", concurrency, m.idle, want)
	}
	return n
}

// BenchmarkSequencerSweep times one warm Concurrency 1 sweep over four
// measured paths (and an invalid one): four NTTCP bursts of 8 messages.
func BenchmarkSequencerSweep(b *testing.B) {
	r := newSweepRig(b, 1)
	const warm = 2 // warmSweepAllocs's warm-up
	for i := 0; i < warm; i++ {
		r.round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.round()
	}
	b.StopTimer()
	if r.sweeps != b.N+warm || r.m.Samples != uint64(len(r.measured)*r.sweeps) {
		b.Fatalf("%d sweeps, %d samples for %d rounds", r.sweeps, r.m.Samples, b.N+warm)
	}
}

// TestSequencerSweepAllocatesNothing: once warm, a Concurrency 1 sweep
// allocates nothing: the sweep appends every measurement set into the
// monitor's buffer, regroups the paths, an invalid one skipped, into
// buffers the monitor keeps, and each NTTCP call reopens its adapter's
// socket.
func TestSequencerSweepAllocatesNothing(t *testing.T) {
	if n := warmSweepAllocs(t, 1); n != 0 {
		t.Fatalf("a warm sweep over 4 measured paths (and an invalid one) allocates %v objects, want 0", n)
	}
}

// TestConcurrentSweepAllocatesNothing: once warm, a concurrent sweep
// allocates nothing either, with a worker per path (Concurrency 4) or fewer
// (2): the monitor keeps its worker procs and their queues from sweep to
// sweep, and each worker its measurement buffer.
func TestConcurrentSweepAllocatesNothing(t *testing.T) {
	for _, c := range []int{4, 2} {
		if n := warmSweepAllocs(t, c); n != 0 {
			t.Fatalf("a warm sweep at concurrency %d over 4 measured paths (and an invalid one) allocates %v objects, want 0", c, n)
		}
	}
}

// orderByServerOracle is the map-based grouping the sequencer used before
// it regrouped into the monitor's buffers.
func orderByServerOracle(paths []core.Path) []core.Path {
	var order []netsim.Addr
	groups := make(map[netsim.Addr][]core.Path)
	for _, p := range paths {
		if !p.Valid() {
			continue
		}
		from := p.Hops[0].Host
		if _, ok := groups[from]; !ok {
			order = append(order, from)
		}
		groups[from] = append(groups[from], p)
	}
	out := make([]core.Path, 0, len(paths))
	for _, from := range order {
		out = append(out, groups[from]...)
	}
	return out
}

// TestOrderByServerMatchesOracle: origins interleave, an invalid path is
// skipped, a second, shorter Submit regroups from scratch, leaving no path
// of the first request in the result.
func TestOrderByServerMatchesOracle(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, smallCfg(), 1)
	ref := func(host netsim.Addr) core.ProcessRef { return core.ProcessRef{Host: host, Process: "p"} }
	long := []core.Path{
		core.NewPath(ref("s2"), ref("c1")),
		core.NewPath(ref("s1"), ref("c1")),
		core.NewPath(ref("s2"), ref("c2")),
		{ID: "invalid", Hops: []core.ProcessRef{ref("s3")}},
		core.NewPath(ref("s3"), ref("c1")),
		core.NewPath(ref("s1"), ref("c2")),
		core.NewPath(ref("s2"), ref("r1"), ref("c3")),
		core.NewPath(ref("s3"), ref("c2")),
	}
	short := []core.Path{
		core.NewPath(ref("s3"), ref("c3")),
		core.NewPath(ref("s1"), ref("c3")),
		core.NewPath(ref("s3"), ref("c1")),
	}
	ids := func(paths []core.Path) []core.PathID {
		out := make([]core.PathID, len(paths))
		for i, p := range paths {
			out[i] = p.ID
		}
		return out
	}
	for i, paths := range [][]core.Path{long, short, long} {
		before := ids(paths)
		m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
		got, want := ids(m.orderByServer(m.Request().Paths)), ids(orderByServerOracle(paths))
		if !slices.Equal(got, want) {
			t.Fatalf("request %d: order %v, want %v", i, got, want)
		}
		if after := ids(paths); !slices.Equal(before, after) {
			t.Fatalf("request %d: the request's path list was reordered to %v", i, after)
		}
	}
	if want := []core.PathID{"s2/p->c1/p", "s2/p->c2/p", "s2/p->r1/p->c3/p", "s1/p->c1/p", "s1/p->c2/p", "s3/p->c1/p", "s3/p->c2/p"}; !slices.Equal(ids(m.orderByServer(long)), want) {
		t.Fatalf("grouped %v, want %v", ids(m.orderByServer(long)), want)
	}
}
