// Package hifi implements the paper's High Fidelity network resource
// monitor (§5.1, Figure 5): a custom monitor built on the NTTCP analysis
// tool.
//
// The NetMon collector receives the resource manager's request and formats
// it for the test sequencer. RTDS client simulators (NTTCP responders) run
// on every client-pool host; RTDS server simulators (NTTCP measurement
// clients configured to mimic the RTDS traffic shape, L=8192 B every
// P=30 ms) run on every server-pool host. The test sequencer drives the
// server simulators either serially — the paper's sequencer, reducing peak
// overhead from C·S·(L/P) ≈ 59 Mb/s to L/P ≈ 2.18 Mb/s at the cost of
// senescence C·S·T — or in parallel, or with bounded concurrency (the
// ablation knob).
package hifi

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Monitor is the high-fidelity instantiation of the core architecture.
type Monitor struct {
	core.DirectorBase

	// Cfg is the NTTCP configuration, tuned to mimic the application
	// (§5.1.2: inter-send time and message length set experimentally).
	Cfg nttcp.Config
	// Concurrency bounds simultaneous path measurements: 1 is the paper's
	// test sequencer; >= number of paths is the fully parallel variant.
	Concurrency int

	// Breakers, when non-nil, holds per-host circuit breakers shared with
	// (or private to) this monitor: the sequencer skips paths whose
	// endpoints' breakers are open instead of burning a full NTTCP test
	// window on a host already known dead, and feeds reachability results
	// back into the breakers.
	Breakers *resilience.BreakerSet
	// SkippedPaths counts measurements fast-failed by an open breaker.
	SkippedPaths uint64

	// Sweeps counts completed passes over the path list; SweepTime is the
	// duration of the last complete sweep (C·S·T for the sequencer).
	Sweeps    int
	SweepTime time.Duration
	// TrafficBytes accumulates measurement overhead put on the wire.
	TrafficBytes int64
	// Samples counts NTTCP measurements actually run (skipped paths are
	// not samples).
	Samples uint64
	// SweepOverheadBps is the measurement traffic of the last sweep that
	// took virtual time, averaged over that sweep, in bits/s — the paper's
	// L/P ≈ 2.18 Mb/s intrusiveness figure (§5.1.3) as a live read.
	SweepOverheadBps float64

	// Push instruments (nil = disabled); see EnableTelemetry.
	tracer      *telemetry.Tracer
	telSweepSec *telemetry.Histogram

	host       *netsim.Node
	nw         *netsim.Network
	serverSims map[netsim.Addr]*nttcp.Client
	responders map[netsim.Addr]*nttcp.Server
	started    bool
}

var _ core.Monitor = (*Monitor)(nil)

// New creates the monitor with its collector on host (typically the
// management station).
func New(host *netsim.Node, cfg nttcp.Config, concurrency int) *Monitor {
	if concurrency < 1 {
		concurrency = 1
	}
	return &Monitor{
		DirectorBase: core.NewDirectorBase(host.Network().K),
		Cfg:          cfg,
		Concurrency:  concurrency,
		host:         host,
		nw:           host.Network(),
		serverSims:   make(map[netsim.Addr]*nttcp.Client),
		responders:   make(map[netsim.Addr]*nttcp.Server),
	}
}

// EnableTelemetry publishes the sequencer's own counts under the "hifi."
// prefix — Sweeps, Samples, SkippedPaths and the SweepOverheadBps gauge —
// and records each path measurement as a trace span tagged with the path
// id, nested under a per-sweep span (tr may be nil to skip tracing). It
// also publishes the measurement database.
func (m *Monitor) EnableTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	m.tracer = tr
	reg.CounterFunc("hifi.sweeps", func() uint64 { return uint64(m.Sweeps) })
	reg.CounterFunc("hifi.samples", func() uint64 { return m.Samples })
	reg.CounterFunc("hifi.skipped_paths", func() uint64 { return m.SkippedPaths })
	reg.GaugeFunc("hifi.sweep_overhead_bps", func() float64 { return m.SweepOverheadBps })
	m.telSweepSec = reg.Histogram("hifi.sweep_s", []float64{0.1, 0.5, 1, 5, 10, 30})
	m.DB.EnableTelemetry(reg, "hifi.db")
}

// Submit installs the request and provisions simulators on every host the
// path list touches: a server simulator (measurement client) at each path
// origin and a client simulator (responder) at each destination.
func (m *Monitor) Submit(req core.Request) {
	m.DirectorBase.Submit(req)
	for _, path := range req.Paths {
		if !path.Valid() {
			continue
		}
		from := path.Hops[0].Host
		to := path.Hops[len(path.Hops)-1].Host
		// Two independent lookups: an origin this network cannot resolve
		// must not cost the path its responder.
		if _, ok := m.serverSims[from]; !ok {
			if node := m.nw.Node(from); node != nil {
				m.serverSims[from] = nttcp.NewClient(node, m.Cfg)
			}
		}
		if _, ok := m.responders[to]; !ok {
			if node := m.nw.Node(to); node != nil {
				m.responders[to] = nttcp.StartServer(node, 0)
			}
		}
	}
}

// Start spawns the NetMon collector / test sequencer proc. Monitoring is
// continuous: a sweep follows the last with no pause.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	m.host.Spawn("netmon-collector", func(p *sim.Proc) {
		for !m.Stopped() {
			req, ok := m.Request()
			if !ok || len(req.Paths) == 0 {
				p.Sleep(100 * time.Millisecond)
				continue
			}
			start := p.Now()
			traffic0 := m.TrafficBytes
			sweepSpan := m.tracer.Begin("hifi.sweep", "", start)
			m.sweep(p, req, sweepSpan)
			m.Sweeps++
			m.SweepTime = p.Now() - start
			sweepSpan.End(p.Now())
			m.telSweepSec.Observe(m.SweepTime.Seconds())
			if m.SweepTime > 0 {
				m.SweepOverheadBps = float64(m.TrafficBytes-traffic0) * 8 / m.SweepTime.Seconds()
			}
			if m.SweepTime == 0 {
				// Every path fast-failed (open breakers): the sweep consumed
				// no virtual time, so yielding would spin the collector at a
				// single instant forever. Pace it at a nominal beat instead.
				p.Sleep(10 * time.Millisecond)
			} else {
				p.Yield()
			}
		}
	})
}

// sweep measures every path once, honoring the concurrency bound. Paths
// are grouped by origin server, matching the sequencer's server-by-server
// operation in Figure 5.
func (m *Monitor) sweep(p *sim.Proc, req core.Request, sweepSpan telemetry.Span) {
	paths := orderByServer(req.Paths)
	if m.Concurrency == 1 {
		for _, path := range paths {
			for _, meas := range m.measurePath(p, path, req.Metrics, sweepSpan) {
				m.Publish(meas)
			}
		}
		return
	}
	// Bounded-parallel: dispatch up to Concurrency measurements at once
	// onto per-path procs running on the origin hosts.
	done := sim.NewQueue[[]core.Measurement](m.nw.K, 0)
	inFlight := 0
	launch := func(path core.Path) {
		node := m.nw.Node(path.Hops[0].Host)
		node.Spawn("rtds-server-sim", func(sp *sim.Proc) {
			done.Put(m.measurePath(sp, path, req.Metrics, sweepSpan))
		})
	}
	for _, path := range paths {
		for inFlight >= m.Concurrency {
			if batch, ok := done.Get(p, -1); ok {
				inFlight--
				for _, meas := range batch {
					m.Publish(meas)
				}
			}
		}
		launch(path)
		inFlight++
	}
	for inFlight > 0 {
		if batch, ok := done.Get(p, -1); ok {
			inFlight--
			for _, meas := range batch {
				m.Publish(meas)
			}
		}
	}
}

// orderByServer stably groups the path list by origin host, preserving the
// resource manager's order within each group.
func orderByServer(paths []core.Path) []core.Path {
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

// MeasurePath runs the NTTCP burst for one path on demand and converts the
// result to (path, metric)-tuples for the requested metrics. The hybrid
// monitor uses it for targeted high-fidelity rechecks; the sweep loop uses
// it for every path. The caller's proc must be allowed to run on any node
// (the measurement traffic originates at the path's first hop regardless).
func (m *Monitor) MeasurePath(p *sim.Proc, path core.Path, wanted []metrics.Metric) []core.Measurement {
	// Targeted rechecks (the hybrid's escalations) trace as root spans;
	// sweep-driven measurements nest under their sweep's span instead.
	sp := m.tracer.Begin("hifi.recheck", string(path.ID), p.Now())
	out := m.measurePath(p, path, wanted, sp)
	sp.End(p.Now())
	return out
}

func (m *Monitor) measurePath(p *sim.Proc, path core.Path, wanted []metrics.Metric, parent telemetry.Span) []core.Measurement {
	// The per-path sample span; parent (the sweep or recheck span) stays
	// open — it is shared across paths and ended by the caller.
	span := parent.Child("hifi.sample", string(path.ID), p.Now())
	from := path.Hops[0].Host
	to := path.Hops[len(path.Hops)-1].Host
	cli := m.serverSims[from]
	if cli == nil {
		span.End(p.Now())
		return failAll(path.ID, wanted, p.Now(), "no server simulator on "+string(from))
	}
	if m.Breakers != nil {
		if open, host := m.breakerBlocks(p.Now(), from, to); open {
			// Fast-fail: report the path unreachable without spending the
			// NTTCP test window; the breaker's half-open probe (or another
			// monitor sharing the set) will re-admit the host later.
			m.SkippedPaths++
			span.End(p.Now())
			return m.fastFail(path.ID, wanted, p.Now(), host)
		}
	}
	res, err := cli.Measure(p, to, 0)
	m.Samples++
	span.End(p.Now())
	if m.Breakers != nil {
		if res.Reached {
			m.Breakers.For(string(from)).Success(p.Now())
			m.Breakers.For(string(to)).Success(p.Now())
		} else {
			// Only the far endpoint is implicated: the near side sourced
			// the probe traffic, so silence says nothing about it.
			m.Breakers.For(string(to)).Failure(p.Now())
		}
	}
	m.TrafficBytes += res.OverheadBytes
	now := p.Now()
	out := make([]core.Measurement, 0, len(wanted))
	for _, metric := range wanted {
		meas := core.Measurement{Path: path.ID, Metric: metric, TakenAt: now, Quality: core.QualityDirect}
		switch metric {
		case metrics.Reachability:
			// Knowing the peer is unreachable is itself a successful
			// reachability measurement.
			if res.Reached {
				meas.Value = 1
			}
		case metrics.Throughput:
			if err != nil {
				meas.Err = err.Error()
			} else {
				meas.Value = res.ThroughputBps
			}
		case metrics.OneWayLatency:
			if err != nil {
				meas.Err = err.Error()
			} else {
				meas.Value = res.OneWayLatency.Seconds()
			}
		}
		out = append(out, meas)
	}
	return out
}

// breakerBlocks reports whether either endpoint's breaker denies admission
// at time now, and which host tripped first.
func (m *Monitor) breakerBlocks(now time.Duration, from, to netsim.Addr) (bool, netsim.Addr) {
	if !m.Breakers.For(string(from)).Allow(now) {
		return true, from
	}
	if !m.Breakers.For(string(to)).Allow(now) {
		return true, to
	}
	return false, ""
}

// fastFail builds the measurement set for a breaker-skipped path:
// reachability is a successful observation of value 0 (the breaker's
// knowledge is the observation); other metrics are errors.
func (m *Monitor) fastFail(id core.PathID, wanted []metrics.Metric, now time.Duration, host netsim.Addr) []core.Measurement {
	out := make([]core.Measurement, 0, len(wanted))
	for _, metric := range wanted {
		meas := core.Measurement{Path: id, Metric: metric, TakenAt: now, Quality: core.QualityDirect}
		if metric != metrics.Reachability {
			meas.Err = "resilience: circuit open to " + string(host)
		}
		out = append(out, meas)
	}
	return out
}

func failAll(id core.PathID, wanted []metrics.Metric, now time.Duration, why string) []core.Measurement {
	out := make([]core.Measurement, len(wanted))
	for i, metric := range wanted {
		out[i] = core.Measurement{Path: id, Metric: metric, TakenAt: now, Err: why}
	}
	return out
}

// PeakOverheadBps returns the analytic peak monitoring load for n
// simultaneous paths with the monitor's configuration — the paper's
// C·S·(L/P) formula when n = C·S.
func (m *Monitor) PeakOverheadBps(n int) float64 {
	return float64(n) * nttcp.PeakOverheadBps(m.Cfg)
}

// String describes the monitor configuration.
func (m *Monitor) String() string {
	mode := "sequencer"
	if m.Concurrency > 1 {
		mode = fmt.Sprintf("concurrency=%d", m.Concurrency)
	}
	return fmt.Sprintf("hifi(%s, L=%d, P=%v)", mode, m.Cfg.MsgLen, m.Cfg.InterSend)
}
