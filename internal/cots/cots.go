// Package cots implements the paper's Scalable network resource monitor
// (§5.2): a sensor director that translates the resource manager's
// (path, metric)-tuples into SNMP MIB queries and RMON threshold traps,
// using COTS-style network management components as its sensors.
//
// The fidelity ceiling the paper observed is reproduced structurally:
//
//   - reachability is inferred from whether an agent answers (and must be
//     polled in the background, because connectionless SNMP gives no
//     failure notification);
//   - throughput is approximated from interface octet-counter deltas,
//     timed by the agent's own sysUpTime ticks (10 ms granularity at
//     best — §5.2.4's "clock granularity appears to be limited");
//   - one-way latency has no standard-MIB source at all and is
//     approximated as half the SNMP round trip.
//
// Every such measurement is marked QualityApproximate, in contrast to the
// NTTCP-based monitor's QualityDirect.
package cots

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flowmeter"
	"repro/internal/metrics"
	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/resilience"
	"repro/internal/rmon"
	"repro/internal/sim"
	"repro/internal/snmp"
	"repro/internal/telemetry"
)

// ResilienceStats counts the resilience layer's interventions.
type ResilienceStats struct {
	// FastFailedPolls counts host polls skipped because the host's circuit
	// breaker was open; each one is a timeout the sweep did not wait out.
	FastFailedPolls uint64
	// ShedSweeps counts poll cycles deferred because the open-breaker
	// fraction reached shedOpenFraction (fleet-wide timeout spike).
	ShedSweeps uint64
}

// Monitor is the COTS instantiation of the core architecture.
type Monitor struct {
	core.DirectorBase

	// Client is the manager-side SNMP endpoint used by all polls.
	Client *snmp.Client
	// PollInterval is the background polling period — the knob trading
	// detection latency and senescence against intrusiveness (§5.2.4).
	PollInterval time.Duration

	// Agents tracks the agents deployed by EnsureAgents, per host.
	Agents map[netsim.Addr]*DeployedAgent

	// Breakers, when non-nil, holds one circuit breaker per polled agent:
	// an open breaker fast-fails the host's poll (recording reachability 0
	// immediately) instead of burning a timeout every sweep. Install via
	// EnableResilience. While shedOpenFraction of them are not closed the
	// director stretches the next poll interval by shedFactor.
	Breakers *resilience.BreakerSet

	// RStats counts resilience-layer interventions.
	RStats ResilienceStats
	// Sweeps counts completed poll sweeps.
	Sweeps int

	// Push instruments (nil = disabled); see EnableTelemetry.
	tracer      *telemetry.Tracer
	telSweepSec *telemetry.Histogram
	telPollRTT  *telemetry.Histogram

	host       *netsim.Node
	nw         *netsim.Network
	registry   *AgentRegistry
	sink       *snmp.TrapSink
	watches    map[netsim.Addr]watch
	meter      *flowmeter.Meter
	flowReader *flowmeter.Reader
	started    bool

	// per-path previous counter samples for delta throughput
	prev map[core.PathID]counterSample

	// One sweep's working set, emptied and refilled by the next.
	hostOrder []netsim.Addr
	seen      map[netsim.Addr]bool
	samples   map[netsim.Addr]hostSample
	flowRates map[[2]netsim.Addr]float64
}

// ifInOctets1 is the counter a host poll reads beside sysUpTime.
var ifInOctets1 = mib.IfEntry.Append(10, 1)

type counterSample struct {
	octets uint64
	ticks  uint64
	valid  bool
}

// DeployedAgent bundles an agent with its MIB view.
type DeployedAgent struct {
	Node  *netsim.Node
	View  *mib.NodeView
	Agent *snmp.Agent
}

// AgentRegistry shares deployed SNMP agents between directors. A host runs
// one agent no matter how many monitors poll it; without sharing, two
// directors whose path lists overlap (per-region directors in a sharded
// system, or a hybrid's cots member next to a standalone one) would each
// deploy an agent — double MIB views, double trap sources. Wire one
// registry into every director with UseRegistry before submitting requests.
//
// The registry is a wiring-time structure: deployments happen while the
// topology is being set up (or from Submit, which sharded setups call
// before the run), from a single goroutine. It must not be mutated from
// inside concurrently running shards.
type AgentRegistry struct {
	agents map[netsim.Addr]*DeployedAgent
}

// NewAgentRegistry returns an empty shared agent registry.
func NewAgentRegistry() *AgentRegistry {
	return &AgentRegistry{agents: make(map[netsim.Addr]*DeployedAgent)}
}

// Lookup returns the agent deployed on host, or nil.
func (r *AgentRegistry) Lookup(host netsim.Addr) *DeployedAgent { return r.agents[host] }

// Size reports how many hosts have agents.
func (r *AgentRegistry) Size() int { return len(r.agents) }

var _ core.Monitor = (*Monitor)(nil)

// New creates the monitor with its management station on host.
func New(host *netsim.Node, community string, pollInterval time.Duration) *Monitor {
	if pollInterval <= 0 {
		pollInterval = 5 * time.Second
	}
	m := &Monitor{
		DirectorBase: core.NewDirectorBase(host.Network().K),
		Client:       snmp.NewClient(host, community),
		PollInterval: pollInterval,
		Agents:       make(map[netsim.Addr]*DeployedAgent),
		host:         host,
		nw:           host.Network(),
		prev:         make(map[core.PathID]counterSample),
		seen:         make(map[netsim.Addr]bool),
		samples:      make(map[netsim.Addr]hostSample),
	}
	m.Client.Timeout = 500 * time.Millisecond
	m.Client.Retries = 1
	return m
}

// EnableResilience installs the resilience layer: a circuit breaker per
// polled agent, exponential backoff on the SNMP client's retries, a
// per-request deadline budget, and fleet-wide load shedding. Call before
// Start. Backoff may be nil (no retry spacing); budget 0 means uncapped.
func (m *Monitor) EnableResilience(cfg resilience.BreakerConfig, backoff *resilience.Backoff, budget time.Duration) {
	m.Breakers = resilience.NewBreakerSet(cfg)
	m.Client.Backoff = backoff
	m.Client.Budget = budget
}

// Load shedding: a fleet-wide timeout spike means the network needs fewer
// packets, not more, so once this fraction of the breakers is not closed
// the next poll interval is multiplied by shedFactor.
const (
	shedOpenFraction = 0.5
	shedFactor       = 2
)

// EnableTelemetry publishes the director's own counts under the "cots."
// prefix and records each sweep as a trace span with one child span per
// host poll (tr may be nil to skip tracing). It also publishes the SNMP
// client, the measurement database, the trap sink and the resilience
// layer; EnableResilience and Start may come before or after this call,
// because the readers look m.Breakers, m.Client.Backoff and the sink up
// when they are read, and one that is not installed reads zero. The §4.3
// intrusiveness and fidelity questions become live reads: the breaker
// open-fraction gauge, the poll RTT histogram, and the fresh-query hit
// rate.
func (m *Monitor) EnableTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	m.tracer = tr
	reg.CounterFunc("cots.sweeps", func() uint64 { return uint64(m.Sweeps) })
	reg.CounterFunc("cots.fast_failed_polls", func() uint64 { return m.RStats.FastFailedPolls })
	reg.CounterFunc("cots.shed_sweeps", func() uint64 { return m.RStats.ShedSweeps })
	reg.GaugeFunc("cots.breaker_open_fraction", func() float64 {
		if m.Breakers == nil {
			return 0
		}
		return m.Breakers.OpenFraction(m.nw.K.Now())
	})
	m.telSweepSec = reg.Histogram("cots.sweep_s", []float64{0.01, 0.05, 0.1, 0.5, 1, 5})
	m.telPollRTT = reg.Histogram("cots.poll_rtt_s", []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5})
	m.Client.EnableTelemetry(reg, "cots.snmp")
	m.DB.EnableTelemetry(reg, "cots.db")

	breakers := func() resilience.BreakerStats {
		if m.Breakers == nil {
			return resilience.BreakerStats{}
		}
		return m.Breakers.Stats()
	}
	reg.CounterFunc("cots.breaker.opens", func() uint64 { return breakers().Opens })
	reg.CounterFunc("cots.breaker.closes", func() uint64 { return breakers().Closes })
	reg.CounterFunc("cots.breaker.probes", func() uint64 { return breakers().Probes })
	reg.CounterFunc("cots.breaker.fast_fails", func() uint64 { return breakers().FastFails })
	backoff := func() (waits uint64, waited time.Duration) {
		if b := m.Client.Backoff; b != nil {
			waits, waited = b.Waits, b.Waited
		}
		return waits, waited
	}
	reg.CounterFunc("cots.backoff.waits", func() uint64 { w, _ := backoff(); return w })
	reg.CounterFunc("cots.backoff.wait_ns", func() uint64 { _, d := backoff(); return uint64(d) })
	sink := func() snmp.TrapSinkStats {
		if m.sink == nil {
			return snmp.TrapSinkStats{}
		}
		return m.sink.Stats
	}
	reg.CounterFunc("cots.trapsink.arrived", func() uint64 { return sink().Arrived })
	reg.CounterFunc("cots.trapsink.dropped", func() uint64 { return sink().Dropped })
	reg.CounterFunc("cots.trapsink.processed", func() uint64 { return sink().Processed })
	reg.GaugeFunc("cots.trapsink.queue_depth", func() float64 {
		if m.sink == nil {
			return 0
		}
		return float64(m.sink.QueueLen())
	})
}

// UseFlowMeter switches the throughput sensor from interface counter
// deltas to a passive flow meter (per host-pair), the RTFM direction the
// paper's §2 cites. The meter must tap a segment every monitored path
// crosses; the estimate remains QualityApproximate because it measures
// the traffic the application happens to send, not path capacity.
func (m *Monitor) UseFlowMeter(meter *flowmeter.Meter) {
	m.meter = meter
	m.flowReader = meter.NewReader()
	m.flowRates = make(map[[2]netsim.Addr]float64)
}

// UseRegistry shares agent deployments with other directors: EnsureAgent
// and EnsureAgentOn consult (and feed) the registry, so a host polled by
// several monitors still runs exactly one agent. Call before Submit.
func (m *Monitor) UseRegistry(r *AgentRegistry) { m.registry = r }

// EnsureAgent deploys (or returns) the SNMP agent on a host. It resolves
// the host in the director's own network; hosts living in foreign networks
// (other regions of a sharded topology) must be deployed with EnsureAgentOn
// instead, since only the caller holds their node.
func (m *Monitor) EnsureAgent(host netsim.Addr) *DeployedAgent {
	if a := m.deployed(host); a != nil {
		return a
	}
	return m.EnsureAgentOn(m.nw.Node(host))
}

// EnsureAgentOn deploys (or returns) the SNMP agent on an explicit node,
// which may belong to a different network than the director's — the
// sharded-topology case, where a path's far endpoint lives in another
// region. The agent's socket and procs run on the node's own kernel, so the
// deployment stays shard-correct; only the deployment itself must happen at
// wiring time.
func (m *Monitor) EnsureAgentOn(node *netsim.Node) *DeployedAgent {
	if node == nil {
		return nil
	}
	if a := m.deployed(node.Name); a != nil {
		return a
	}
	return m.deploy(node)
}

// deployed returns the agent already running on host, from the director's
// own map or else the shared registry, or nil.
func (m *Monitor) deployed(host netsim.Addr) *DeployedAgent {
	if a, ok := m.Agents[host]; ok {
		return a
	}
	if m.registry != nil {
		if a := m.registry.Lookup(host); a != nil {
			m.Agents[host] = a
			return a
		}
	}
	return nil
}

func (m *Monitor) deploy(node *netsim.Node) *DeployedAgent {
	view := mib.NewNodeView(node)
	agent := snmp.NewAgent(view.Tree, m.Client.Community)
	agent.ServeSim(node, 0)
	d := &DeployedAgent{Node: node, View: view, Agent: agent}
	m.Agents[node.Name] = d
	if m.registry != nil {
		m.registry.agents[node.Name] = d
	}
	return d
}

// Submit installs the request and deploys agents on every host the path
// list touches.
func (m *Monitor) Submit(req core.Request) {
	m.DirectorBase.Submit(req)
	for _, path := range req.Paths {
		for _, hop := range path.Hops {
			m.EnsureAgent(hop.Host)
		}
	}
}

// Start spawns the sensor director's polling proc and the trap sink.
func (m *Monitor) Start() {
	if m.started {
		return
	}
	m.started = true
	if m.sink == nil {
		m.sink = snmp.StartTrapSink(m.host, 0, snmp.DefaultTrapQueueCap, time.Millisecond)
		m.sink.OnTrap = m.onTrap
	}
	m.host.Spawn("cots-director", func(p *sim.Proc) {
		for !m.Stopped() {
			req := m.Request()
			if len(req.Paths) == 0 {
				p.Sleep(m.PollInterval)
				continue
			}
			m.sweep(p, req)
			interval := m.PollInterval
			if m.Breakers != nil && m.Breakers.OpenFraction(p.Now()) >= shedOpenFraction {
				interval *= shedFactor
				m.RStats.ShedSweeps++
			}
			p.Sleep(interval)
		}
	})
}

// hostSample is one sweep's view of one agent.
type hostSample struct {
	up     bool
	rtt    time.Duration
	ticks  uint64
	octets uint64
}

// sweep polls every distinct host on the path list once (sysUpTime +
// ifInOctets), then derives per-path measurements: a path is deemed
// reachable when both endpoint agents answer, throughput comes from the
// destination's counter deltas timed by its own sysUpTime ticks, and
// latency is approximated as half the destination's SNMP round trip.
//
// Polling per host rather than per path is what makes this director
// scalable; the price is that "reachability" is really endpoint liveness —
// it cannot see a broken path between two healthy hosts, one more fidelity
// gap versus the NTTCP sensor.
func (m *Monitor) sweep(p *sim.Proc, req core.Request) {
	sweepStart := p.Now()
	sweepSpan := m.tracer.Begin("cots.sweep", "", sweepStart)
	hostOrder, seen, samples := m.hostOrder[:0], m.seen, m.samples
	clear(seen)
	clear(samples)
	for _, path := range req.Paths {
		if !path.Valid() {
			continue
		}
		for _, hop := range path.Hops {
			if !seen[hop.Host] {
				seen[hop.Host] = true
				hostOrder = append(hostOrder, hop.Host)
			}
		}
	}
	m.hostOrder = hostOrder
	flowRates := m.flowRates // nil without a flow meter
	if m.flowReader != nil {
		clear(flowRates)
		for _, r := range m.flowReader.Rates() {
			flowRates[[2]netsim.Addr{r.Key.Src, r.Key.Dst}] += r.BitsPS
		}
	}
	for _, host := range hostOrder {
		var br *resilience.Breaker
		if m.Breakers != nil {
			br = m.Breakers.For(string(host))
			if !br.Allow(p.Now()) {
				// Circuit open: record the host as down immediately instead
				// of spending a full timeout re-learning what the breaker
				// already knows. The half-open probe re-checks it later.
				m.RStats.FastFailedPolls++
				samples[host] = hostSample{}
				continue
			}
		}
		pollSpan := sweepSpan.Child("cots.poll", string(host), p.Now())
		rtt, binds, err := m.timedGet(p, host, mib.SysUpTime, ifInOctets1)
		pollSpan.End(p.Now())
		m.telPollRTT.Observe(rtt.Seconds())
		s := hostSample{rtt: rtt}
		if err == nil && len(binds) == 2 {
			s.up = true
			s.ticks = binds[0].Value.Uint
			s.octets = binds[1].Value.Uint
		}
		if br != nil {
			if s.up {
				br.Success(p.Now())
			} else {
				br.Failure(p.Now())
			}
		}
		samples[host] = s
	}
	now := p.Now()
	for _, path := range req.Paths {
		if !path.Valid() {
			continue
		}
		src := samples[path.Hops[0].Host]
		dst := samples[path.Hops[len(path.Hops)-1].Host]
		for _, metric := range req.Metrics {
			meas := core.Measurement{Path: path.ID, Metric: metric, TakenAt: now, Quality: core.QualityApproximate}
			switch metric {
			case metrics.Reachability:
				// Answering agents are the only signal SNMP offers;
				// silence means unreachable (or just lost datagrams —
				// the ambiguity is inherent, §5.2.4).
				if src.up && dst.up {
					meas.Value = 1
				}
			case metrics.OneWayLatency:
				if !dst.up {
					meas.Err = snmp.ErrTimeout.Error()
				} else {
					meas.Value = (dst.rtt / 2).Seconds()
				}
			case metrics.Throughput:
				if !dst.up {
					meas.Err = snmp.ErrTimeout.Error()
					m.prev[path.ID] = counterSample{}
					break
				}
				if flowRates != nil {
					meas.Value = flowRates[[2]netsim.Addr{path.Hops[0].Host, path.Hops[len(path.Hops)-1].Host}]
					break
				}
				prev := m.prev[path.ID]
				m.prev[path.ID] = counterSample{octets: dst.octets, ticks: dst.ticks, valid: true}
				if !prev.valid {
					meas.Err = "warming up: first counter sample"
					break
				}
				// Counter32 and TimeTicks wrap at 2^32; deltas are taken
				// modulo 2^32 as real managers must (a busy FDDI interface
				// wraps ifInOctets in minutes).
				dticks := (dst.ticks - prev.ticks) & 0xffffffff
				if dticks == 0 {
					meas.Err = "agent clock did not advance between samples"
					break
				}
				doctets := (dst.octets - prev.octets) & 0xffffffff
				meas.Value = float64(doctets) * 8 / (float64(dticks) / 100)
			}
			m.Publish(meas)
		}
	}
	m.Sweeps++
	sweepSpan.End(p.Now())
	m.telSweepSec.Observe((p.Now() - sweepStart).Seconds())
}

// timedGet issues a Get and reports the round-trip time.
func (m *Monitor) timedGet(p *sim.Proc, agent netsim.Addr, oids ...mib.OID) (time.Duration, []snmp.VarBind, error) {
	start := p.Now()
	binds, err := m.Client.Get(p, agent, oids...)
	return p.Now() - start, binds, err
}

// onTrap converts arriving RMON threshold traps into asynchronous
// measurements for the path registered against the alarm. The sink keeps
// receiving after Stop (its counts stay true), but a stopped monitor
// publishes nothing.
func (m *Monitor) onTrap(msg *snmp.Message, from netsim.Addr) {
	watch, ok := m.watches[from]
	if !ok || m.Stopped() {
		return
	}
	var sampled int64
	for _, vb := range msg.PDU.VarBinds {
		if vb.Value.Kind == mib.KindInteger {
			sampled = vb.Value.Int
		}
	}
	meas := core.Measurement{
		Path:    watch.path,
		Metric:  metrics.Throughput,
		Value:   float64(sampled) * 8 / watch.interval.Seconds(),
		Quality: core.QualityApproximate,
		TakenAt: m.nw.K.Now(),
	}
	m.Publish(meas)
	if watch.onEvent != nil {
		watch.onEvent(msg.PDU.SpecificTrap == 1, meas)
	}
}

type watch struct {
	path     core.PathID
	interval time.Duration
	onEvent  func(rising bool, meas core.Measurement)
}

// WatchSegment installs an RMON delta-octets alarm on a probe and routes
// its rising/falling traps back as asynchronous throughput reports for the
// given path — "a trap could be set up in an RMON probe ... to monitor
// network capacity on the specified path" (§5.2.2).
//
//lint:allow unusedexport test-pinned by TestWatchSegmentTrapsBecomeAsyncReports, TestStopQuietsTrapPublishing and TestTelemetryReadsOwnersFields (the only trap source they have); retire together with rmon's alarm group
func (m *Monitor) WatchSegment(probe *rmon.Probe, path core.PathID, interval time.Duration,
	risingOctets, fallingOctets int64, onEvent func(rising bool, meas core.Measurement)) {

	d := m.EnsureAgent(probe.Node.Name)
	if d == nil {
		return
	}
	probe.Register(d.View.Tree)
	d.Agent.AddTrapDestSim(probe.Node, m.host.Name, 0)
	probe.TrapFunc = func(generic, specific int, binds []rmon.VarBind) {
		sb := make([]snmp.VarBind, len(binds))
		for i, b := range binds {
			sb[i] = snmp.VarBind{OID: b.OID, Value: b.Value}
		}
		d.Agent.SendTrap(mib.Enterprise, mib.PseudoIP(probe.Node.Name), generic, specific, sb)
	}
	rising := probe.AddEvent("utilization high", true, true)
	falling := probe.AddEvent("utilization normal", true, true)
	probe.AddAlarm(d.View.Tree, rmon.Alarm{
		Interval:     interval,
		Variable:     rmon.EtherStatsOID(4), // etherStatsOctets
		SampleType:   rmon.DeltaValue,
		Rising:       risingOctets,
		Falling:      fallingOctets,
		RisingEvent:  rising,
		FallingEvent: falling,
	})
	if m.watches == nil {
		m.watches = make(map[netsim.Addr]watch)
	}
	m.watches[probe.Node.Name] = watch{path: path, interval: interval, onEvent: onEvent}
}

// TrapSink exposes the station's sink for experiments.
func (m *Monitor) TrapSink() *snmp.TrapSink { return m.sink }

// String describes the monitor configuration.
func (m *Monitor) String() string {
	return fmt.Sprintf("cots(poll=%v, agents=%d)", m.PollInterval, len(m.Agents))
}
