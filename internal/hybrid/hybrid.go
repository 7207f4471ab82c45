// Package hybrid implements the monitor the paper's §7 calls "a promising
// approach": a hybrid of the scalable COTS implementation and the
// high-fidelity NTTCP implementation.
//
// The COTS side performs cheap, approximate background surveillance of the
// whole path list and records each report in the hybrid's database at the
// instant its sweep takes it. Whenever a path's approximate measurement
// looks anomalous — unreachable, failed, or throughput below a threshold —
// the monitor launches a targeted NTTCP burst on just that path and
// publishes the high-fidelity result. The system pays NTTCP's
// intrusiveness only where and when something seems wrong, and pays SNMP's
// fidelity ceiling only where nothing does.
package hybrid

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/hifi"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/sim"
	"repro/internal/snmp"
	"repro/internal/telemetry"
)

// Config tunes the hybrid's escalation rule.
type Config struct {
	// PollInterval is the COTS background polling period.
	PollInterval time.Duration
	// MinThroughputBps marks approximate throughput below this anomalous.
	MinThroughputBps float64
	// NTTCP is the burst configuration for targeted measurements.
	NTTCP nttcp.Config
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = 5 * time.Second
	}
	return c
}

// Monitor is the hybrid instantiation of the core architecture.
type Monitor struct {
	core.DirectorBase

	Cfg Config
	// Escalations counts targeted NTTCP measurements triggered.
	Escalations int

	cotsMon     *cots.Monitor
	anomalies   sim.Queue[core.Measurement] // cotsMon's anomalous reports, unbounded
	hifiMon     *hifi.Monitor
	host        *netsim.Node
	paths       map[core.PathID]core.Path
	lastRecheck map[core.PathID]time.Duration
	started     bool
}

var _ core.Monitor = (*Monitor)(nil)

// New creates the hybrid monitor with its director on host.
func New(host *netsim.Node, community string, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		DirectorBase: core.NewDirectorBase(host.Network().K),
		Cfg:          cfg,
		cotsMon:      cots.New(host, community, cfg.PollInterval),
		hifiMon:      hifi.New(host, cfg.NTTCP, 1),
		host:         host,
	}
	m.cotsMon.DB = m.DB // one store: a report is recorded when its sweep takes it
	m.anomalies.Init(host.Network().K, 0)
	m.cotsMon.OnPublish = func(meas core.Measurement) {
		if m.anomalous(meas) {
			m.anomalies.Put(meas)
		}
	}
	return m
}

// EnableTelemetry publishes both sub-monitors under their own prefixes
// ("cots.", "hifi.") and Escalations under "hybrid.escalations". The
// hybrid's database is its COTS member's, so "cots.db" reads it. Spans
// from the COTS sweeps and the targeted hifi rechecks share tr (which may
// be nil).
func (m *Monitor) EnableTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	reg.CounterFunc("hybrid.escalations", func() uint64 { return uint64(m.Escalations) })
	m.cotsMon.EnableTelemetry(reg, tr)
	m.hifiMon.EnableTelemetry(reg, tr)
}

// Submit installs the request on both sub-monitors; the COTS side records
// its reports and streams the anomalous ones to the escalation loop, the
// hifi side only provisions its simulators. A request replaces the
// previous one: a path it no longer names is not escalated again, whatever
// the escalation loop still has queued, and a COTS sweep already in
// flight records only the paths req still names.
func (m *Monitor) Submit(req core.Request) {
	m.DirectorBase.Submit(req)
	m.paths = make(map[core.PathID]core.Path, len(req.Paths))
	m.lastRecheck = make(map[core.PathID]time.Duration, len(req.Paths))
	for _, p := range req.Paths {
		m.paths[p.ID] = p
	}
	m.cotsMon.Submit(req)
	m.hifiMon.Submit(req) // provisions sims; hifiMon.Start is never called
}

// Start begins background surveillance and the escalation loop, which
// waits for anomalous reports and bursts on the paths they name.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	m.cotsMon.Start()
	m.host.Spawn("hybrid-director", func(p *sim.Proc) {
		for {
			meas, _ := m.anomalies.Get(p, -1)
			if m.Stopped() {
				return
			}
			path, ok := m.paths[meas.Path]
			if !ok {
				continue // measured for a request since replaced
			}
			if cur, ok := m.DB.Current(meas.Path, meas.Metric); ok && meas.TakenAt < cur.TakenAt {
				continue // superseded by a later sweep or a recheck
			}
			m.maybeEscalate(p, path)
		}
	})
}

// Stop ceases collection on the hybrid director and on both sub-monitors.
// Without the second half the COTS side keeps sweeping — and keeps
// recording into the store and filling the unbounded anomaly queue that
// the exited director no longer drains.
func (m *Monitor) Stop() {
	m.DirectorBase.Stop()
	m.cotsMon.Stop()
	m.hifiMon.Stop()
}

// anomalous applies the escalation rule to an approximate measurement.
func (m *Monitor) anomalous(meas core.Measurement) bool {
	switch {
	case meas.Metric == metrics.Reachability && !meas.Reached():
		return true
	case !meas.OK():
		// Failed collections include SNMP timeouts and counter warm-up;
		// only timeouts are anomalies worth burst traffic.
		return meas.Err == snmp.ErrTimeout.Error()
	case meas.Metric == metrics.Throughput && m.Cfg.MinThroughputBps > 0 &&
		meas.Value < m.Cfg.MinThroughputBps:
		return true
	}
	return false
}

// maybeEscalate runs a targeted NTTCP measurement unless the path was
// rechecked within the last two poll intervals.
func (m *Monitor) maybeEscalate(p *sim.Proc, path core.Path) {
	now := p.Now()
	if last, ok := m.lastRecheck[path.ID]; ok && now-last < 2*m.Cfg.PollInterval {
		return
	}
	m.lastRecheck[path.ID] = now
	m.Escalations++
	req := m.Request()
	results := m.hifiMon.MeasurePath(p, path, req.Metrics)
	if _, ok := m.paths[path.ID]; !ok {
		return // dropped by a resubmit during the burst
	}
	for _, direct := range results {
		m.Publish(direct)
	}
}

// String describes the monitor configuration.
func (m *Monitor) String() string {
	return fmt.Sprintf("hybrid(poll=%v, minTP=%.3g, escalations=%d)",
		m.Cfg.PollInterval, m.Cfg.MinThroughputBps, m.Escalations)
}
