package hybrid

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nttcp"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

var allMetrics = []metrics.Metric{metrics.Throughput, metrics.OneWayLatency, metrics.Reachability}

func build(t *testing.T, cfg Config) (*sim.Kernel, *topo.HiPerD, *Monitor) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	h := topo.BuildHiPerD(k, 1)
	if cfg.NTTCP.MsgLen == 0 {
		cfg.NTTCP = nttcp.Config{MsgLen: 1024, InterSend: 5 * time.Millisecond, Count: 8, Timeout: 500 * time.Millisecond}
	}
	m := New(h.Mgmt, "public", cfg)
	return k, h, m
}

func TestQuietSystemNeverEscalates(t *testing.T) {
	k, h, m := build(t, Config{PollInterval: time.Second})
	m.Submit(core.Request{Paths: h.PathList()[:6], Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	k.RunUntil(20 * time.Second)
	if m.Escalations != 0 {
		t.Fatalf("escalations = %d on a healthy system", m.Escalations)
	}
	// Approximate surveillance data is flowing.
	r, ok := m.Query(h.PathList()[0].ID, metrics.Reachability)
	if !ok || !r.Reached() || r.Quality != core.QualityApproximate {
		t.Fatalf("surveillance data: %v %v", r, ok)
	}
}

func TestFailureTriggersTargetedRecheck(t *testing.T) {
	k, h, m := build(t, Config{PollInterval: time.Second})
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:3])
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	k.At(5*time.Second, func() { h.Clients[0].SetUp(false) })
	k.RunUntil(30 * time.Second)
	if m.Escalations == 0 {
		t.Fatal("dead client never escalated to NTTCP recheck")
	}
	// The direct recheck confirmed unreachability.
	r, ok := m.Query(paths[0].ID, metrics.Reachability)
	if !ok || r.Reached() {
		t.Fatalf("post-failure reachability: %v %v", r, ok)
	}
	// Healthy paths were never burst-tested: escalations stay bounded by
	// the one dead path's rechecks.
	maxRechecks := int(25/2) + 1 // cooldown = 2s over 25s of failure
	if m.Escalations > maxRechecks {
		t.Fatalf("escalations = %d, want <= %d (cooldown)", m.Escalations, maxRechecks)
	}
}

func TestEscalationPublishesDirectQuality(t *testing.T) {
	k, h, m := build(t, Config{PollInterval: time.Second})
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:1])
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	k.At(3*time.Second, func() { h.Clients[0].SetUp(false) })
	k.RunUntil(15 * time.Second)
	sawDirect := false
	m.DB.EachHistory(paths[0].ID, metrics.Reachability, 0, func(s core.Measurement) bool {
		sawDirect = s.Quality == core.QualityDirect
		return !sawDirect
	})
	if !sawDirect {
		t.Fatal("no direct-quality measurement after escalation")
	}
}

func TestHybridCheaperThanAlwaysOnHiFi(t *testing.T) {
	// The §7 rationale: during healthy operation the hybrid's measurement
	// traffic is only the COTS polling, far below a continuous NTTCP sweep.
	k, h, m := build(t, Config{PollInterval: 2 * time.Second})
	m.Submit(core.Request{Paths: h.PathList(), Metrics: allMetrics})
	m.Start()
	k.RunUntil(60 * time.Second)
	if m.hifiMon.TrafficBytes != 0 {
		t.Fatalf("hifi traffic %d bytes on a healthy system", m.hifiMon.TrafficBytes)
	}
	snmpBps := float64(m.cotsMon.Client.Stats.BytesSent+m.cotsMon.Client.Stats.BytesRecv) * 8 / 60
	alwaysOn := 27.0 * nttcp.PeakOverheadBps(nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond})
	if snmpBps > alwaysOn/100 {
		t.Fatalf("hybrid background load %.0f b/s not << always-on %.0f b/s", snmpBps, alwaysOn)
	}
}

func TestLowThroughputEscalates(t *testing.T) {
	k, h, m := build(t, Config{PollInterval: time.Second, MinThroughputBps: 100e6})
	// Threshold far above anything the counters will show: every
	// post-warm-up throughput sample is anomalous; cooldown bounds bursts.
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:1])
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	m.Start()
	k.RunUntil(20 * time.Second)
	if m.Escalations == 0 {
		t.Fatal("below-threshold throughput never escalated")
	}
	tp, ok := m.Query(paths[0].ID, metrics.Throughput)
	if !ok {
		t.Fatal("no throughput recorded")
	}
	_ = tp
}

// TestStopStopsTheSubMonitors: Stop must quiet the COTS surveillance under
// the hybrid, not just the hybrid's own director. Otherwise the sub-monitor
// keeps polling a network nobody reads for and — being in ReportAsync mode —
// keeps filling the unbounded Reports queue the exited director has stopped
// draining.
func TestStopStopsTheSubMonitors(t *testing.T) {
	k, h, m := build(t, Config{PollInterval: time.Second})
	m.Submit(core.Request{Paths: h.PathList(), Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	k.RunUntil(10 * time.Second)
	if m.DB.Records == 0 {
		t.Fatal("no surveillance before Stop")
	}
	m.Stop()
	k.RunUntil(k.Now() + m.Cfg.PollInterval) // the sweep and the Get in flight finish
	requests, queued, records := m.cotsMon.Client.Stats.Requests, m.cotsMon.Reports().Len(), m.DB.Records
	k.RunUntil(k.Now() + 60*time.Second)
	if got := m.cotsMon.Client.Stats.Requests; got != requests {
		t.Errorf("SNMP requests went %d -> %d in the 60 s after Stop", requests, got)
	}
	if got := m.cotsMon.Reports().Len(); got != queued {
		t.Errorf("undrained reports went %d -> %d in the 60 s after Stop", queued, got)
	}
	if m.DB.Records != records {
		t.Errorf("records went %d -> %d after Stop", records, m.DB.Records)
	}
}

// TestTelemetryReadsOwnersFields: the hybrid publishes its escalation count
// and its merged database next to both sub-monitors' instruments; each is
// the owner's own field.
func TestTelemetryReadsOwnersFields(t *testing.T) {
	k, h, m := build(t, Config{PollInterval: time.Second})
	m.EnableTelemetry(nil, nil) // a nil registry is a no-op
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, telemetry.NewTracer("hybrid", 64))
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:3])
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	k.At(5*time.Second, func() { h.Clients[0].SetUp(false) })
	k.RunUntil(30 * time.Second)
	if m.Escalations == 0 || m.hifiMon.Samples == 0 || m.cotsMon.Sweeps == 0 {
		t.Fatalf("scenario drifted: %d escalations, %d hifi samples, %d cots sweeps",
			m.Escalations, m.hifiMon.Samples, m.cotsMon.Sweeps)
	}
	fp := m.DB.Footprint()
	for name, want := range map[string]float64{
		"hybrid.escalations":         float64(m.Escalations),
		"hybrid.db.records":          float64(m.DB.Records),
		"hybrid.db.stale_marks":      float64(m.DB.StaleMarked),
		"hybrid.db.fresh_hits":       float64(m.DB.FreshHits),
		"hybrid.db.fresh_misses":     float64(m.DB.FreshMisses),
		"hybrid.db.series":           float64(fp.Series),
		"hybrid.db.retained_samples": float64(fp.Retained),
		"hybrid.db.sketch_bytes":     float64(fp.SketchBytes),
		// One instrument of each sub-monitor: their own packages check the rest.
		"cots.sweeps":        float64(m.cotsMon.Sweeps),
		"cots.snmp.requests": float64(m.cotsMon.Client.Stats.Requests),
		"cots.db.records":    float64(m.cotsMon.DB.Records),
		"hifi.samples":       float64(m.hifiMon.Samples),
		"hifi.db.records":    float64(m.hifiMon.DB.Records),
	} {
		got := reg.Gauge(name).Value()
		if c := reg.Counter(name); c != nil {
			got = float64(c.Value())
		}
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// 8 of the hybrid's own, cots' 30 and hifi's 12.
	if reg.Len() != 8+30+12 {
		t.Errorf("%d instruments registered, want %d", reg.Len(), 8+30+12)
	}
}

// TestResubmitDropsPaths: a request replaces the previous one. The COTS side
// reports asynchronously through an unbounded queue, so at the moment of the
// resubmit — here in the middle of the dead path's NTTCP burst — measurements
// of the dropped path are still queued; none of them may be published or buy
// another burst.
func TestResubmitDropsPaths(t *testing.T) {
	k, h, m := build(t, Config{PollInterval: time.Second})
	paths := core.CrossProductPaths(h.ServerRefs()[:1], h.ClientRefs()[:2])
	kept, dropped := paths[0], paths[1]
	m.Submit(core.Request{Paths: paths, Metrics: allMetrics})
	m.Start()
	samples := func(id core.PathID) (n int) {
		for _, metric := range allMetrics {
			m.DB.EachHistory(id, metric, 0, func(core.Measurement) bool { n++; return true })
		}
		return n
	}
	k.At(2*time.Second, func() { h.Clients[1].SetUp(false) })
	// 5.5 s is inside the second burst on the dead path, with the rest of
	// that sweep's reports waiting behind it (checked below).
	const resubmitAt = 5500 * time.Millisecond
	var escalations, droppedSamples, keptSamples, queued int
	k.At(resubmitAt, func() {
		m.Submit(core.Request{Paths: paths[:1], Metrics: allMetrics})
		escalations, droppedSamples, keptSamples = m.Escalations, samples(dropped.ID), samples(kept.ID)
		queued = m.cotsMon.Reports().Len()
	})
	k.RunUntil(resubmitAt + 20*time.Second)
	if escalations == 0 || queued == 0 {
		t.Fatalf("at the resubmit: %d escalations, %d reports queued; the test needs both", escalations, queued)
	}
	if m.Escalations != escalations {
		t.Errorf("escalations went %d -> %d after the path was dropped", escalations, m.Escalations)
	}
	if got := samples(dropped.ID); got != droppedSamples {
		t.Errorf("dropped path's samples went %d -> %d after the resubmit", droppedSamples, got)
	}
	if got := samples(kept.ID); got <= keptSamples {
		t.Errorf("kept path's samples stayed at %d after the resubmit", got)
	}
}
