// Package manager implements the resource manager of Figure 1: it consumes
// (path, metric)-tuples from a network resource monitor, evaluates them
// against the system's requirements, and achieves survivability by
// reconfiguring the system — "when the resource manager determines that a
// process fails or becomes unreachable from reports received by its
// resource monitors, it selects a new host on which to resume the operation
// of the failed process" (§5.1).
package manager

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Policy states the system's requirements on each monitored path.
type Policy struct {
	// RequireReachable fails a process whose paths are unreachable.
	RequireReachable bool
	// MinThroughputBps, when > 0, is the floor for path throughput.
	MinThroughputBps float64
	// MaxLatency, when > 0, is the ceiling for path one-way latency.
	MaxLatency time.Duration
	// Grace is how many consecutive evaluations a process may fail before
	// reconfiguration (transient tolerance).
	Grace int
	// EvalInterval is how often placements are evaluated.
	EvalInterval time.Duration
	// HostCooldown keeps a host that just lost a process out of the
	// placement pools for this long, so a flapping host is not
	// immediately reused.
	HostCooldown time.Duration
	// MaxStaleness, when > 0, bounds how old a database sample may be
	// before the manager refuses to act on it: stale data is treated as
	// missing, not as evidence of health (or of failure). Zero preserves
	// the legacy trust-anything behavior.
	MaxStaleness time.Duration
	// LatencyP95Max / LatencyP99Max, when > 0, put a ceiling on a path's
	// p95/p99 one-way latency as estimated by the monitor's per-series
	// quantile sketches (core.QuantileQuerier) — a tail-latency policy a
	// current-value check cannot express: a path that is usually fine but
	// freezes for one request in twenty violates p95 while sailing past
	// MaxLatency most evaluations. Monitors that cannot answer quantile
	// queries (no sketches enabled) skip the tail checks. Unlike current
	// values, sketch digests aggregate the series' whole lifetime, so
	// MaxStaleness does not gate them.
	LatencyP95Max time.Duration
	LatencyP99Max time.Duration
	// ThroughputP95Min, when > 0, is the throughput the path must sustain
	// with 95% confidence: the series' 5th-percentile sample (the rate
	// exceeded by 95% of observations) must stay at or above this floor.
	// A path that usually streams fine but starves one interval in ten
	// violates it while its mean — and most current-value checks — look
	// healthy. Like the latency tails it reads the monitor's quantile
	// sketches and is gated by TailMinSamples.
	ThroughputP95Min float64
	// TailMinSamples holds the tail checks back until a series' sketch
	// has at least this many observations (default 32), so one early
	// spike in a nearly-empty distribution cannot trigger
	// reconfiguration.
	TailMinSamples int
}

func (p Policy) withDefaults() Policy {
	if p.Grace <= 0 {
		p.Grace = 2
	}
	if p.EvalInterval <= 0 {
		p.EvalInterval = time.Second
	}
	if p.TailMinSamples <= 0 {
		p.TailMinSamples = 32
	}
	return p
}

// Placement is a managed process's current host assignment.
type Placement struct {
	Process     string
	Role        string
	Host        netsim.Addr
	Since       time.Duration
	Incarnation int
}

// Reconfig records one reconfiguration decision.
type Reconfig struct {
	At      time.Duration
	Process string
	From    netsim.Addr
	To      netsim.Addr
	Reason  string
}

func (r Reconfig) String() string {
	return fmt.Sprintf("[%v] %s: %s -> %s (%s)", r.At, r.Process, r.From, r.To, r.Reason)
}

// Manager is the resource manager.
type Manager struct {
	Policy Policy
	// Metrics is the metric set requested from the monitor; defaults to
	// all three §4.2 metrics filtered by the policy's needs.
	Metrics []metrics.Metric
	// OnReconfig is invoked after each placement change, so the
	// application layer can restart the process on its new host.
	OnReconfig func(Reconfig)

	// Reconfigs is the decision log.
	Reconfigs []Reconfig
	// StaleReads counts queries whose answer was rejected as stale under
	// Policy.MaxStaleness — each one is a decision the manager declined to
	// base on senescent data.
	StaleReads uint64
	// Evaluations counts policy evaluations run; Failovers the host moves
	// they led to (not pool-exhausted stalls); TailViolations the paths
	// found over a p95/p99 latency ceiling or under the p95-confidence
	// throughput floor.
	Evaluations    uint64
	Failovers      uint64
	TailViolations uint64

	host       *netsim.Node
	mon        core.Monitor
	pools      map[string][]netsim.Addr
	used       map[netsim.Addr]string // host -> process occupying it
	placed     map[string]*Placement
	order      []string // placement creation order (determinism)
	badRuns    map[string]int
	lastFailed map[netsim.Addr]time.Duration
	started    bool
}

// New creates a resource manager on host, reading from mon.
func New(host *netsim.Node, mon core.Monitor, policy Policy) *Manager {
	m := &Manager{
		Policy:     policy.withDefaults(),
		host:       host,
		mon:        mon,
		pools:      make(map[string][]netsim.Addr),
		used:       make(map[netsim.Addr]string),
		placed:     make(map[string]*Placement),
		badRuns:    make(map[string]int),
		lastFailed: make(map[netsim.Addr]time.Duration),
	}
	m.Metrics = []metrics.Metric{metrics.Reachability}
	if m.Policy.MinThroughputBps > 0 || m.Policy.ThroughputP95Min > 0 {
		m.Metrics = append(m.Metrics, metrics.Throughput)
	}
	if m.Policy.MaxLatency > 0 || m.Policy.LatencyP95Max > 0 || m.Policy.LatencyP99Max > 0 {
		m.Metrics = append(m.Metrics, metrics.OneWayLatency)
	}
	return m
}

// EnableTelemetry publishes the manager's decision counts under prefix:
// Evaluations, Failovers, StaleReads and TailViolations. A nil registry
// publishes nothing.
func (m *Manager) EnableTelemetry(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+".evaluations", func() uint64 { return m.Evaluations })
	reg.CounterFunc(prefix+".failovers", func() uint64 { return m.Failovers })
	reg.CounterFunc(prefix+".stale_reads", func() uint64 { return m.StaleReads })
	reg.CounterFunc(prefix+".tail_violations", func() uint64 { return m.TailViolations })
}

// DefinePool registers the replicated host pool for a role.
func (m *Manager) DefinePool(role string, hosts []netsim.Addr) {
	m.pools[role] = append([]netsim.Addr(nil), hosts...)
}

// Place assigns a new managed process of the given role to the first free
// pool host. It returns the placement or an error when the pool is
// exhausted.
func (m *Manager) Place(process, role string) (*Placement, error) {
	host, ok := m.freeHost(role)
	if !ok {
		return nil, fmt.Errorf("manager: pool %q exhausted placing %s", role, process)
	}
	pl := &Placement{Process: process, Role: role, Host: host, Since: m.host.Network().K.Now()}
	m.placed[process] = pl
	m.order = append(m.order, process)
	m.used[host] = process
	return pl, nil
}

func (m *Manager) freeHost(role string) (netsim.Addr, bool) {
	now := m.host.Network().K.Now()
	for _, h := range m.pools[role] {
		if _, taken := m.used[h]; taken {
			continue
		}
		if failedAt, failed := m.lastFailed[h]; failed && m.Policy.HostCooldown > 0 &&
			now-failedAt < m.Policy.HostCooldown {
			continue
		}
		if node := m.host.Network().Node(h); node != nil && node.Up() {
			return h, true
		}
	}
	return "", false
}

// Placement returns the current placement of a process.
func (m *Manager) Placement(process string) (*Placement, bool) {
	pl, ok := m.placed[process]
	return pl, ok
}

// Placements lists all placements in creation order.
func (m *Manager) Placements() []*Placement {
	out := make([]*Placement, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, m.placed[name])
	}
	return out
}

// PathList builds the monitoring path list between every placement of
// roleFrom and every placement of roleTo (the Figure 4(b) construction over
// live placements).
func (m *Manager) PathList(roleFrom, roleTo string) []core.Path {
	var from, to []core.ProcessRef
	for _, name := range m.order {
		pl := m.placed[name]
		switch pl.Role {
		case roleFrom:
			from = append(from, core.ProcessRef{Host: pl.Host, Process: pl.Process})
		case roleTo:
			to = append(to, core.ProcessRef{Host: pl.Host, Process: pl.Process})
		}
	}
	return core.CrossProductPaths(from, to)
}

// Start submits the monitoring request for paths between the two roles and
// begins the evaluation loop.
func (m *Manager) Start(roleFrom, roleTo string) {
	if m.started {
		return
	}
	m.started = true
	m.submit(roleFrom, roleTo)
	m.host.Spawn("resource-manager", func(p *sim.Proc) {
		for {
			p.Sleep(m.Policy.EvalInterval)
			m.evaluate(p, roleFrom, roleTo)
		}
	})
}

func (m *Manager) submit(roleFrom, roleTo string) {
	m.mon.Submit(core.Request{
		Paths:   m.PathList(roleFrom, roleTo),
		Metrics: m.Metrics,
	})
}

// evaluate inspects the database's current values for every path and
// reconfigures processes that persistently violate policy.
func (m *Manager) evaluate(p *sim.Proc, roleFrom, roleTo string) {
	m.Evaluations++
	paths := m.PathList(roleFrom, roleTo)
	type verdict struct {
		bad, seen int
	}
	verdicts := make(map[string]*verdict) // per process
	record := func(proc string, bad bool) {
		v := verdicts[proc]
		if v == nil {
			v = &verdict{}
			verdicts[proc] = v
		}
		v.seen++
		if bad {
			v.bad++
		}
	}
	for _, path := range paths {
		bad, have := m.pathViolates(path.ID)
		if !have {
			continue
		}
		for _, hop := range path.Hops {
			record(hop.Process, bad)
		}
	}
	// A process has failed when every path touching it is bad; if every
	// process looks failed (e.g. total network partition at the monitor),
	// nothing is singled out and no reconfiguration happens.
	var failed []string
	healthySomewhere := false
	for _, name := range m.order {
		v := verdicts[name]
		if v == nil || v.seen == 0 {
			continue
		}
		if v.bad == v.seen {
			failed = append(failed, name)
		} else {
			healthySomewhere = true
		}
	}
	if !healthySomewhere && len(failed) == len(m.order) && len(m.order) > 1 {
		return
	}
	for _, name := range m.order {
		isFailed := false
		for _, f := range failed {
			if f == name {
				isFailed = true
			}
		}
		if !isFailed {
			m.badRuns[name] = 0
			continue
		}
		m.badRuns[name]++
		if m.badRuns[name] >= m.Policy.Grace {
			m.failover(p, name, roleFrom, roleTo)
			m.badRuns[name] = 0
		}
	}
}

// query reads one current value, applying the Policy.MaxStaleness gate:
// a sample older than the bound (or one the monitor's senescence watchdog
// has marked stale) reports ok=false, exactly as if never recorded.
func (m *Manager) query(id core.PathID, metric metrics.Metric) (core.Measurement, bool) {
	meas, ok := m.mon.Query(id, metric)
	if !ok || m.Policy.MaxStaleness <= 0 {
		return meas, ok
	}
	now := m.host.Network().K.Now()
	if fresh, fok := m.mon.QueryFresh(id, metric, now, m.Policy.MaxStaleness); fok {
		return fresh, true
	}
	m.StaleReads++
	return core.Measurement{}, false
}

// pathViolates checks the current database values for one path against the
// policy. have is false when no data exists yet.
func (m *Manager) pathViolates(id core.PathID) (bad, have bool) {
	if m.Policy.RequireReachable {
		r, ok := m.query(id, metrics.Reachability)
		if ok {
			have = true
			if !r.Reached() {
				return true, true
			}
		}
	}
	if m.Policy.MinThroughputBps > 0 {
		tp, ok := m.query(id, metrics.Throughput)
		if ok && tp.OK() {
			have = true
			if tp.Value < m.Policy.MinThroughputBps {
				return true, true
			}
		} else if ok && !tp.OK() {
			have = true
			return true, true
		}
	}
	if m.Policy.MaxLatency > 0 {
		lat, ok := m.query(id, metrics.OneWayLatency)
		if ok && lat.OK() {
			have = true
			if lat.Value > m.Policy.MaxLatency.Seconds() {
				return true, true
			}
		}
	}
	if bad, ok := m.tailViolates(id); ok {
		have = true
		if bad {
			return true, true
		}
	}
	return false, have
}

// tailViolates evaluates the distributional policies — the p95/p99
// latency ceilings and the p95-confidence throughput floor — against the
// monitor's quantile sketches for the path. ok is false when no tail
// policy is set or no consulted series has Policy.TailMinSamples
// observations yet.
func (m *Manager) tailViolates(id core.PathID) (bad, ok bool) {
	latTail := m.Policy.LatencyP95Max > 0 || m.Policy.LatencyP99Max > 0
	tpTail := m.Policy.ThroughputP95Min > 0
	if !latTail && !tpTail {
		return false, false
	}
	if latTail {
		sum, have := m.mon.QuantileSummary(id, metrics.OneWayLatency)
		if have && sum.Count >= uint64(m.Policy.TailMinSamples) {
			ok = true
			if m.Policy.LatencyP95Max > 0 && sum.P95 > m.Policy.LatencyP95Max.Seconds() {
				m.TailViolations++
				return true, true
			}
			if m.Policy.LatencyP99Max > 0 && sum.P99 > m.Policy.LatencyP99Max.Seconds() {
				m.TailViolations++
				return true, true
			}
		}
	}
	if tpTail {
		sum, have := m.mon.QuantileSummary(id, metrics.Throughput)
		if have && sum.Count >= uint64(m.Policy.TailMinSamples) {
			ok = true
			// The 5th-percentile sample is the throughput sustained 95% of
			// the time; below the floor, the path starves too often.
			if p05, qok := m.mon.Quantile(id, metrics.Throughput, 0.05); qok && p05 < m.Policy.ThroughputP95Min {
				m.TailViolations++
				return true, true
			}
		}
	}
	return false, ok
}

// failover moves a process to a fresh pool host and resubmits monitoring.
func (m *Manager) failover(p *sim.Proc, process, roleFrom, roleTo string) {
	pl := m.placed[process]
	if pl == nil {
		return
	}
	newHost, ok := m.freeHost(pl.Role)
	if !ok {
		m.Reconfigs = append(m.Reconfigs, Reconfig{
			At: p.Now(), Process: process, From: pl.Host, To: pl.Host,
			Reason: "pool exhausted: no spare host",
		})
		return
	}
	old := pl.Host
	delete(m.used, old)
	m.lastFailed[old] = p.Now()
	m.used[newHost] = process
	pl.Host = newHost
	pl.Since = p.Now()
	pl.Incarnation++
	rec := Reconfig{At: p.Now(), Process: process, From: old, To: newHost, Reason: "policy violation"}
	m.Reconfigs = append(m.Reconfigs, rec)
	m.Failovers++
	m.submit(roleFrom, roleTo)
	if m.OnReconfig != nil {
		m.OnReconfig(rec)
	}
}
