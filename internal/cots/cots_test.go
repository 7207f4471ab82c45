package cots

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowmeter"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rmon"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

var allMetrics = []metrics.Metric{metrics.Throughput, metrics.OneWayLatency, metrics.Reachability}

func TestPollsProduceApproximateMeasurements(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", time.Second)
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:2])
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	// Application traffic so counters move: s1 -> c1 CBR.
	netsim.NewSink(h.Clients[0], 9)
	(&netsim.CBRSource{Src: h.Servers[0], Dst: "c1", DstPort: 9, Size: 8192, Interval: 30 * time.Millisecond}).Run()
	k.RunUntil(10 * time.Second)

	reach, ok := m.Query(paths[0].ID, metrics.Reachability)
	if !ok || !reach.Reached() {
		t.Fatalf("reachability: %v %v", reach, ok)
	}
	if reach.Quality != core.QualityApproximate {
		t.Fatal("COTS measurement not marked approximate")
	}
	tp, ok := m.Query(paths[0].ID, metrics.Throughput)
	if !ok || !tp.OK() {
		t.Fatalf("throughput: %v %v", tp, ok)
	}
	// c1 receives ~2.25 Mb/s inc. headers; counter-delta estimate should
	// be within a factor of 2 (it is an approximation, not garbage).
	if tp.Value < 1e6 || tp.Value > 5e6 {
		t.Fatalf("throughput estimate %.3g implausible", tp.Value)
	}
	lat, _ := m.Query(paths[0].ID, metrics.OneWayLatency)
	if !lat.OK() || lat.Value <= 0 {
		t.Fatalf("latency approx: %v", lat)
	}
}

func TestFirstThroughputSampleWarmsUp(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", 2*time.Second)
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:1])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	m.Start()
	k.RunUntil(1 * time.Second) // only one poll has happened
	tp, ok := m.Query(paths[0].ID, metrics.Throughput)
	if !ok {
		t.Fatal("no current value after first poll")
	}
	if tp.OK() {
		t.Fatalf("first sample should be a warm-up error, got %v", tp)
	}
}

func TestBackgroundPollingDetectsFailure(t *testing.T) {
	// §5.2.4: "a network monitor may need to perform background polling to
	// detect network failure ... which would prevent the reception of
	// traps".
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", time.Second)
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:1])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	k.RunUntil(3 * time.Second)
	if r, _ := m.Query(paths[0].ID, metrics.Reachability); !r.Reached() {
		t.Fatalf("alive client polled unreachable: %v", r)
	}
	failAt := 5 * time.Second
	k.At(failAt, func() { h.Clients[0].SetUp(false) })
	k.RunUntil(20 * time.Second)
	r, _ := m.Query(paths[0].ID, metrics.Reachability)
	if r.Reached() {
		t.Fatal("failure not detected by background polling")
	}
	// Detection happened within ~poll interval + timeout after failure.
	if r.TakenAt < failAt {
		t.Fatalf("stale detection timestamp %v", r.TakenAt)
	}
	// Reachability polls always "succeed" (they measure up or down), so
	// last-known tracks current; the healthy samples remain in history.
	sawHealthy := false
	m.DB.EachHistory(paths[0].ID, metrics.Reachability, 0, func(s core.Measurement) bool {
		sawHealthy = s.Reached() && s.TakenAt < failAt
		return !sawHealthy
	})
	if !sawHealthy {
		t.Fatal("history lost the pre-failure healthy samples")
	}
}

func TestWatchSegmentTrapsBecomeAsyncReports(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", 30*time.Second)                 // long poll: traps do the work
	path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4]) // c5 on the Ethernet
	var published []core.Measurement
	m.OnPublish = func(meas core.Measurement) { published = append(published, meas) }
	m.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}})
	m.Start()

	probe := rmon.NewProbe(h.Probe, h.Eth)
	var events []bool
	var rising core.Measurement
	m.WatchSegment(probe, path.ID, time.Second, 100_000, 10_000, func(up bool, meas core.Measurement) {
		events = append(events, up)
		if up {
			rising = meas
		}
	})

	// Load burst on the Ethernet between t=3s and t=6s: ~2.2 Mb/s >> the
	// 100kB/s rising threshold.
	netsim.NewSink(h.Clients[4], 9)
	k.At(3*time.Second, func() {
		(&netsim.CBRSource{Src: h.Servers[0], Dst: "c5", DstPort: 9, Size: 8192, Interval: 30 * time.Millisecond, Count: 100}).Run()
	})
	k.RunUntil(15 * time.Second)
	if len(events) < 2 {
		t.Fatalf("events = %v, want rising then falling", events)
	}
	if !events[0] || events[1] {
		t.Fatalf("event order = %v", events)
	}
	if m.TrapSink().Stats.Processed < 2 {
		t.Fatalf("sink processed %d traps", m.TrapSink().Stats.Processed)
	}
	// The rising report carried an approximate throughput above the
	// threshold rate (100 kB/s over 1 s = 800 kb/s).
	if rising.Value < 800_000 {
		t.Fatalf("rising trap throughput = %.0f b/s", rising.Value)
	}
	// The rising report reached the publish hook, once.
	streamed := 0
	for _, meas := range published {
		if meas == rising {
			streamed++
		}
	}
	if streamed != 1 {
		t.Fatalf("the rising report was published %d times, want once (%d published)", streamed, len(published))
	}
	// And the current value after the burst is back near zero.
	if r, ok := m.Query(path.ID, metrics.Throughput); !ok || r.Value >= 800_000 {
		t.Fatalf("post-burst throughput: %v %v", r, ok)
	}
}

func TestPollingTrafficScalesWithPathsAndInterval(t *testing.T) {
	// Intrusiveness: bytes on the wire per unit time grow linearly with
	// the number of monitored paths and inversely with the interval.
	traffic := func(nClients int, interval time.Duration) uint64 {
		k := sim.NewKernel()
		defer k.Close()
		h := topo.BuildHiPerD(k, 1)
		m := New(h.Mgmt, "public", interval)
		paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:nClients])
		m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
		m.Start()
		k.RunUntil(30 * time.Second)
		return m.Client.Stats.BytesSent
	}
	base := traffic(2, 5*time.Second)
	morePaths := traffic(8, 5*time.Second)
	faster := traffic(2, time.Second)
	if morePaths < 3*base {
		t.Fatalf("4x paths -> %.1fx traffic", float64(morePaths)/float64(base))
	}
	if faster < 3*base {
		t.Fatalf("5x rate -> %.1fx traffic", float64(faster)/float64(base))
	}
}

func TestCOTSIsLessIntrusiveThanParallelHiFi(t *testing.T) {
	// The architecture tradeoff in one number: monitoring 27 paths, COTS
	// polling puts orders of magnitude fewer bytes on the backbone than
	// parallel NTTCP bursts.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", 5*time.Second)
	m.Submit(core.Request{Paths: h.PathList(), Metrics: allMetrics})
	m.Start()
	k.RunUntil(60 * time.Second)
	perSecond := float64(m.Client.Stats.BytesSent+m.Client.Stats.BytesRecv) * 8 / 60
	if perSecond > 500_000 {
		t.Fatalf("COTS polling load %.0f b/s implausibly high", perSecond)
	}
	if m.Client.Stats.Responses == 0 {
		t.Fatal("no successful polls")
	}
}

func TestCounterWrapHandledInThroughput(t *testing.T) {
	// Push the destination's 32-bit octet counter to just below the wrap
	// point; the delta across the wrap must still be the true rate, not a
	// 4-billion-octet explosion or an underflow.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	// Pre-load the counter near 2^32.
	h.Clients[0].Ifaces()[0].Counters.InOctets = 1<<32 - 50_000
	m := New(h.Mgmt, "public", time.Second)
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:1])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	m.Start()
	netsim.NewSink(h.Clients[0], 9)
	(&netsim.CBRSource{Src: h.Servers[0], Dst: "c1", DstPort: 9,
		Size: 8192, Interval: 30 * time.Millisecond}).Run()
	k.RunUntil(15 * time.Second)
	// Every post-warm-up estimate must be sane (~2.2 Mb/s), including the
	// sample that straddled the wrap.
	m.DB.EachHistory(paths[0].ID, metrics.Throughput, 0, func(s core.Measurement) bool {
		if s.OK() && (s.Value < 1e6 || s.Value > 5e6) {
			t.Errorf("wrap-corrupted estimate: %v", s)
		}
		return true
	})
}

func TestFlowMeterThroughputIsPathSpecific(t *testing.T) {
	// Two streams arrive at c5: the monitored s1->c5 stream and cross
	// traffic from w-eth-1. Interface-counter throughput lumps them
	// together; the flow meter attributes only the monitored pair.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	netsim.NewSink(h.Clients[4], 9)
	netsim.NewSink(h.Clients[4], 10)
	(&netsim.CBRSource{Src: h.Servers[0], Dst: "c5", DstPort: 9,
		Size: 8192, Interval: 30 * time.Millisecond}).Run() // ~2.2 Mb/s
	(&netsim.CBRSource{Src: h.Net.Node("w-eth-1"), Dst: "c5", DstPort: 10,
		Size: 1000, Interval: 4 * time.Millisecond}).Run() // ~2 Mb/s cross

	path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4])
	req := core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}}

	counterMon := New(h.Mgmt, "public", 2*time.Second)
	counterMon.Submit(req)
	counterMon.Start()

	// The second management station lives on another host (its trap sink
	// needs its own port 162) and shares the already-deployed agents.
	flowMon := New(h.Net.Node("w-eth-2"), "public", 2*time.Second)
	flowMon.Agents = counterMon.Agents
	meter := flowmeter.New(k)
	meter.Attach(h.Eth)
	flowMon.UseFlowMeter(meter)
	flowMon.Submit(req)
	flowMon.Start()

	k.RunUntil(30 * time.Second)
	counterTP, _ := counterMon.Query(path.ID, metrics.Throughput)
	flowTP, _ := flowMon.Query(path.ID, metrics.Throughput)
	if !counterTP.OK() || !flowTP.OK() {
		t.Fatalf("measurements: %v / %v", counterTP, flowTP)
	}
	appWire := float64(8192+netsim.HeaderOverhead) * 8 / 0.03 // ≈2.19 Mb/s
	// Counter delta sees both streams: well above the monitored stream.
	if counterTP.Value < appWire*1.5 {
		t.Fatalf("counter estimate %.3g should include cross traffic (app %.3g)", counterTP.Value, appWire)
	}
	// Flow meter attributes only s1->c5 (within framing overhead).
	if rel := metrics.RelErr(flowTP.Value, appWire); rel > 0.1 {
		t.Fatalf("flow estimate %.3g vs app wire %.3g (rel %.3f)", flowTP.Value, appWire, rel)
	}
}

func TestBreakerFastFailsDeadAgentPolls(t *testing.T) {
	// With resilience on, a dead agent costs the sweep one breaker lookup
	// instead of a full timeout+retry window, and its paths still read
	// reachability 0. The watchdog comparison test in experiments (E12)
	// quantifies the latency win; here we assert the mechanism.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", time.Second)
	m.EnableResilience()
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:2])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	k.At(3*time.Second, func() { h.Net.Node("c1").SetUp(false) })
	k.RunUntil(12 * time.Second)

	if m.RStats.FastFailedPolls == 0 {
		t.Fatal("open breaker never fast-failed a poll")
	}
	br := m.breakers.For("c1")
	if br.Stats.Opens == 0 {
		t.Fatalf("breaker for dead host never opened: %+v", br.Stats)
	}
	reach, ok := m.Query(paths[0].ID, metrics.Reachability)
	if !ok || !reach.OK() || reach.Value != 0 {
		t.Fatalf("dead-host path reachability = %v (ok=%v), want 0", reach, ok)
	}
	// The healthy host's paths must be unaffected by c1's breaker.
	reach2, ok := m.Query(paths[1].ID, metrics.Reachability)
	if !ok || !reach2.Reached() {
		t.Fatalf("healthy path reachability = %v (ok=%v)", reach2, ok)
	}
}

// TestSweepPublishesOnlyPathsStillRequested: a Submit that drops a path
// while a sweep polls keeps that sweep from recording the dropped path. c2
// is down, so the sweep that begins near 2 s waits out c2's two 500 ms
// attempts and is still polling when c1 alone is resubmitted at 2.5 s.
func TestSweepPublishesOnlyPathsStillRequested(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", time.Second)
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:2])
	const resubmitAt = 2500 * time.Millisecond
	var late []core.Measurement // records taken after the resubmit
	dropped := 0                // records of c2's path before it
	m.OnPublish = func(meas core.Measurement) {
		if meas.TakenAt > resubmitAt {
			late = append(late, meas)
		} else if meas.Path == paths[1].ID {
			dropped++
		}
	}
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	k.At(1500*time.Millisecond, func() { h.Net.Node("c2").SetUp(false) })
	k.At(resubmitAt, func() { m.Submit(core.Request{Paths: paths[:1], Metrics: allMetrics}) })
	k.RunUntil(6 * time.Second)

	if dropped == 0 {
		t.Fatal("scenario drifted: c2's path was not recorded before the resubmit")
	}
	inFlight := 0 // c1 records from the sweep the resubmit interrupted
	for _, meas := range late {
		if meas.Path == paths[1].ID {
			t.Errorf("dropped path recorded at %v, after the resubmit at %v", meas.TakenAt, resubmitAt)
		}
		if meas.Path == paths[0].ID && meas.TakenAt < resubmitAt+time.Second {
			inFlight++
		}
	}
	if inFlight != len(allMetrics) {
		t.Fatalf("scenario drifted: the sweep in flight at the resubmit recorded %d c1 samples, want %d", inFlight, len(allMetrics))
	}
}

// TestTelemetryReadsOwnersFields enables telemetry first and the resilience
// layer and the trap sink afterwards — the order E13 and cmd/hiperd use —
// then drives polls, a dead agent, retries and RMON traps, and checks that
// every published instrument is the owning component's own field. The
// readers resolve m.breakers, m.Client.Backoff and the sink when read, so a
// layer installed late is seen, and one never installed reads zero.
func TestTelemetryReadsOwnersFields(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", time.Second)
	m.EnableTelemetry(nil, nil) // a nil registry is a no-op
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, telemetry.NewTracer("cots", 64))
	reg.Each(func(c *telemetry.Counter, g *telemetry.Gauge, _ *telemetry.Histogram) {
		if c.Value() != 0 || g.Value() != 0 {
			t.Errorf("%s%s reads non-zero before anything is installed or has run", c.Name(), g.Name())
		}
	})

	m.EnableResilience()
	paths := core.CrossProductPaths(h.ServerRefs()[:1], []core.ProcessRef{h.ClientRefs()[0], h.ClientRefs()[4]})
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.WatchSegment(rmon.NewProbe(h.Probe, h.Eth), paths[1].ID, time.Second, 100_000, 10_000, nil)
	m.Start()
	netsim.NewSink(h.Clients[4], 9)
	k.At(2*time.Second, func() {
		(&netsim.CBRSource{Src: h.Servers[0], Dst: "c5", DstPort: 9, Size: 8192, Interval: 30 * time.Millisecond, Count: 100}).Run()
	})
	k.At(3*time.Second, func() { h.Net.Node("c1").SetUp(false) })
	h.Mgmt.Spawn("reader", func(p *sim.Proc) {
		for {
			p.Sleep(time.Second)
			m.QueryFresh(paths[0].ID, metrics.Reachability, p.Now(), 1500*time.Millisecond)
		}
	})
	k.RunUntil(12 * time.Second)

	br := m.breakers.Stats() // the sum over the per-target breakers: resilience's TestTelemetryReadsOwnersFields
	cs, ss, bo, fp := m.Client.Stats, m.TrapSink().Stats, m.Client.Backoff, m.DB.Footprint()
	if m.Sweeps == 0 || m.RStats.FastFailedPolls == 0 || br.Opens == 0 || br.Probes == 0 ||
		cs.Retries == 0 || cs.Timeouts == 0 || bo.Waits == 0 || ss.Processed < 2 || m.DB.FreshHits == 0 {
		t.Fatalf("scenario drifted: sweeps %d rstats %+v breakers %+v client %+v backoff %d sink %+v hits %d",
			m.Sweeps, m.RStats, br, cs, bo.Waits, ss, m.DB.FreshHits)
	}
	counters := map[string]uint64{
		"cots.sweeps":             uint64(m.Sweeps),
		"cots.fast_failed_polls":  m.RStats.FastFailedPolls,
		"cots.shed_sweeps":        m.RStats.ShedSweeps,
		"cots.snmp.requests":      cs.Requests,
		"cots.snmp.retries":       cs.Retries,
		"cots.snmp.timeouts":      cs.Timeouts,
		"cots.snmp.responses":     cs.Responses,
		"cots.snmp.stale_drops":   cs.StaleDrops,
		"cots.snmp.bytes_sent":    cs.BytesSent,
		"cots.snmp.bytes_recv":    cs.BytesRecv,
		"cots.db.records":         m.DB.Records,
		"cots.db.stale_marks":     m.DB.StaleMarked,
		"cots.db.fresh_hits":      m.DB.FreshHits,
		"cots.db.fresh_misses":    m.DB.FreshMisses,
		"cots.breaker.opens":      br.Opens,
		"cots.breaker.closes":     br.Closes,
		"cots.breaker.probes":     br.Probes,
		"cots.breaker.fast_fails": br.FastFails,
		"cots.backoff.waits":      bo.Waits,
		"cots.backoff.wait_ns":    uint64(bo.Waited),
		"cots.trapsink.arrived":   ss.Arrived,
		"cots.trapsink.dropped":   ss.Dropped,
		"cots.trapsink.processed": ss.Processed,
	}
	gauges := map[string]float64{
		"cots.breaker_open_fraction": m.breakers.OpenFraction(k.Now()),
		"cots.db.series":             float64(fp.Series),
		"cots.db.retained_samples":   float64(fp.Retained),
		"cots.db.sketch_bytes":       float64(fp.SketchBytes),
		"cots.trapsink.queue_depth":  float64(m.TrapSink().QueueLen()),
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
	if got, want := reg.Histogram("cots.sweep_s", nil).Count(), uint64(m.Sweeps); got != want {
		t.Errorf("cots.sweep_s observed %d sweeps, want %d", got, want)
	}
	if reg.Histogram("cots.poll_rtt_s", nil).Count() == 0 {
		t.Error("cots.poll_rtt_s observed no poll")
	}
	if n := len(counters) + len(gauges) + 2; reg.Len() != n || n != 30 {
		t.Errorf("%d instruments registered, %d checked against an owner, E13 counts 30", reg.Len(), n)
	}
}

// TestStopQuietsTrapPublishing: after Stop the station's sink still
// receives (and counts) RMON traps, but the stopped monitor turns none of
// them into a measurement or a published report.
func TestStopQuietsTrapPublishing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	m := New(h.Mgmt, "public", 30*time.Second)
	path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4])
	published := 0
	m.OnPublish = func(core.Measurement) { published++ }
	m.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}})
	m.Start()
	events := 0
	m.WatchSegment(rmon.NewProbe(h.Probe, h.Eth), path.ID, time.Second, 100_000, 10_000,
		func(bool, core.Measurement) { events++ })
	netsim.NewSink(h.Clients[4], 9)
	k.RunUntil(2 * time.Second)
	m.Stop()
	records, streamed := m.DB.Records, published
	k.At(3*time.Second, func() {
		(&netsim.CBRSource{Src: h.Servers[0], Dst: "c5", DstPort: 9, Size: 8192, Interval: 30 * time.Millisecond, Count: 100}).Run()
	})
	k.RunUntil(15 * time.Second)
	if m.TrapSink().Stats.Processed < 2 {
		t.Fatalf("sink processed %d traps, want the rising and the falling one", m.TrapSink().Stats.Processed)
	}
	if m.DB.Records != records || published != streamed || events != 0 {
		t.Errorf("after Stop: records %d -> %d, published %d -> %d, %d watch events",
			records, m.DB.Records, streamed, published, events)
	}
}
