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
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
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

	// SkippedPaths is always 0: the sequencer measures every path it has a
	// server simulator for. The benchmark's hifi workload still reads it.
	SkippedPaths uint64

	// Sweeps counts completed passes over the path list; SweepTime is the
	// duration of the last complete sweep (C·S·T for the sequencer).
	Sweeps    int
	SweepTime time.Duration
	// TrafficBytes accumulates measurement overhead put on the wire.
	TrafficBytes int64
	// Samples counts NTTCP measurements actually run (a path without a
	// server simulator is not a sample).
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

	// The sequencer's scratch, reused by every sweep: the measurement set
	// of the path in hand, and orderByServer's origins and result.
	meas    []core.Measurement
	origins []netsim.Addr
	ordered []core.Path

	// A concurrent sweep's workers, kept from sweep to sweep: jobs goes to
	// an idle worker, done brings each measurement set back, idle counts
	// the workers waiting on jobs (see sweep).
	jobs *sim.Queue[job]
	done *sim.Queue[[]core.Measurement]
	idle int
}

// job is one path for a concurrent sweep's worker to measure.
type job struct {
	path   core.Path
	wanted []metrics.Metric
	span   telemetry.Span
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
// prefix — Sweeps, Samples and the SweepOverheadBps gauge —
// and records each path measurement as a trace span tagged with the path
// id, nested under a per-sweep span (tr may be nil to skip tracing). It
// also publishes the measurement database.
func (m *Monitor) EnableTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	m.tracer = tr
	reg.CounterFunc("hifi.sweeps", func() uint64 { return uint64(m.Sweeps) })
	reg.CounterFunc("hifi.samples", func() uint64 { return m.Samples })
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
			req := m.Request()
			if len(req.Paths) == 0 {
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
				// No path had a server simulator (failAll): the sweep
				// consumed no virtual time, so yielding would spin the
				// collector at a single instant forever. Pace it at a
				// nominal beat instead.
				p.Sleep(10 * time.Millisecond)
			} else {
				p.Yield()
			}
		}
	})
}

// sweep measures every path once, honoring the concurrency bound. Paths
// are grouped by origin server, matching the sequencer's server-by-server
// operation in Figure 5. The sequencer measures into the monitor's own
// buffer, and a concurrent sweep's workers each into their own, so once
// warm a sweep allocates nothing.
func (m *Monitor) sweep(p *sim.Proc, req core.Request, sweepSpan telemetry.Span) {
	paths := m.orderByServer(req.Paths)
	if m.Concurrency == 1 {
		for _, path := range paths {
			m.meas = m.measurePath(p, path, req.Metrics, sweepSpan, m.meas[:0])
			for _, meas := range m.meas {
				m.Publish(meas)
			}
		}
		return
	}
	// Bounded-parallel: up to Concurrency measurements at once, each on a
	// worker proc. A path goes to an idle worker, whose wake-up runs at the
	// instant a new proc's first run would, or to a new worker if none is
	// idle, so there are no more workers than the largest Concurrency a
	// sweep has run at.
	if m.jobs == nil {
		m.jobs, m.done = sim.NewQueue[job](m.nw.K, 0), sim.NewQueue[[]core.Measurement](m.nw.K, 0)
	}
	inFlight := 0
	for _, path := range paths {
		for inFlight >= m.Concurrency {
			m.collect(p)
			inFlight--
		}
		j := job{path: path, wanted: req.Metrics, span: sweepSpan}
		if m.idle > 0 {
			m.idle--
			m.jobs.Put(j)
		} else {
			m.host.Spawn("rtds-server-sim", func(wp *sim.Proc) { m.work(wp, j) })
		}
		inFlight++
	}
	for ; inFlight > 0; inFlight-- {
		m.collect(p)
	}
}

// work is a concurrent sweep's worker: it measures j's path into its own
// buffer, hands the set back through done and waits for its next job. The
// buffer is the worker's again only once the sweep has published it, since
// the sweep hands out no job before it has.
func (m *Monitor) work(p *sim.Proc, j job) {
	var meas []core.Measurement
	for {
		meas = m.measurePath(p, j.path, j.wanted, j.span, meas[:0])
		m.done.Put(meas)
		j, _ = m.jobs.Get(p, -1)
	}
}

// collect waits for a worker's measurement set and publishes it; the worker
// is idle from then on.
func (m *Monitor) collect(p *sim.Proc) {
	batch, _ := m.done.Get(p, -1)
	for _, meas := range batch {
		m.Publish(meas)
	}
	m.idle++
}

// orderByServer stably groups the valid paths by origin host, the groups
// in the order their origins first appear, preserving the resource
// manager's order within each group. It regroups on every call, into
// buffers the monitor keeps: the result is valid until the next call.
func (m *Monitor) orderByServer(paths []core.Path) []core.Path {
	m.origins, m.ordered = m.origins[:0], m.ordered[:0]
	for _, p := range paths {
		if p.Valid() && !slices.Contains(m.origins, p.Hops[0].Host) {
			m.origins = append(m.origins, p.Hops[0].Host)
		}
	}
	for _, o := range m.origins {
		for _, p := range paths {
			if p.Valid() && p.Hops[0].Host == o {
				m.ordered = append(m.ordered, p)
			}
		}
	}
	return m.ordered
}

// MeasurePath runs the NTTCP burst for one path on demand and converts the
// result to (path, metric)-tuples for the requested metrics. The hybrid
// monitor uses it for targeted high-fidelity rechecks; the sweep loop uses
// the same measurement for every path. The returned slice is new and the
// caller's to keep: unlike the sweep, a recheck shares no buffer with the
// monitor. The caller's proc must be allowed to run on any node (the
// measurement traffic originates at the path's first hop regardless).
func (m *Monitor) MeasurePath(p *sim.Proc, path core.Path, wanted []metrics.Metric) []core.Measurement {
	// Targeted rechecks (the hybrid's escalations) trace as root spans;
	// sweep-driven measurements nest under their sweep's span instead.
	sp := m.tracer.Begin("hifi.recheck", string(path.ID), p.Now())
	out := m.measurePath(p, path, wanted, sp, nil)
	sp.End(p.Now())
	return out
}

// measurePath measures one path and appends one measurement per wanted
// metric to dst, whether the path was measured or has no server simulator,
// and returns the extended slice.
func (m *Monitor) measurePath(p *sim.Proc, path core.Path, wanted []metrics.Metric, parent telemetry.Span, dst []core.Measurement) []core.Measurement {
	// The per-path sample span; parent (the sweep or recheck span) stays
	// open — it is shared across paths and ended by the caller.
	span := parent.Child("hifi.sample", string(path.ID), p.Now())
	from := path.Hops[0].Host
	to := path.Hops[len(path.Hops)-1].Host
	cli := m.serverSims[from]
	if cli == nil {
		span.End(p.Now())
		return failAll(dst, path.ID, wanted, p.Now(), "no server simulator on "+string(from))
	}
	res, err := cli.Measure(p, to, 0)
	m.Samples++
	span.End(p.Now())
	m.TrafficBytes += res.OverheadBytes
	now := p.Now()
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
		dst = append(dst, meas)
	}
	return dst
}

// failAll appends a failed measurement of every wanted metric to dst.
func failAll(dst []core.Measurement, id core.PathID, wanted []metrics.Metric, now time.Duration, why string) []core.Measurement {
	for _, metric := range wanted {
		dst = append(dst, core.Measurement{Path: id, Metric: metric, TakenAt: now, Err: why})
	}
	return dst
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
