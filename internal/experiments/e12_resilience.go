package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// e12TTL is the senescence bound: a reachability sample older than this is
// too old to base a survivability decision on.
const e12TTL = 2 * time.Second

// drillKills are the clients a chaos drill kills for good; its detection
// latency is measured on the paths that end at them.
var drillKills = []netsim.Addr{"c7", "c8", "c9"}

// faults is a chaos drill's fault timeline on the HiPerD testbed, in one
// mode's virtual time: drillKills die at killAt and stay dead; c4 goes
// down `flaps` times, for flapDown of every flapPeriod from flapAt; the
// Ethernet loses a quarter of its frames over degrade; c1 and c2 are cut
// off over partition (a zero window means no partition); the run ends at
// horizon.
type faults struct {
	killAt, horizon              time.Duration
	flapAt, flapPeriod, flapDown time.Duration
	flaps                        int
	degrade, partition           [2]time.Duration
}

// drill is one chaos run against the COTS monitor: its table row's label,
// its fault timeline in quick and full mode, and the two switches the
// drills vary — the resilience layer and self-telemetry.
type drill struct {
	name                 string
	resilient, telemetry bool
	timeline             [2]faults // quick, full
}

// e12Timeline keeps all four fault flavours: kill, flap, degrade, partition.
var e12Timeline = [2]faults{
	{killAt: 5 * time.Second, horizon: 24 * time.Second,
		flapAt: 8 * time.Second, flapPeriod: 4 * time.Second, flapDown: 2 * time.Second, flaps: 2,
		degrade:   [2]time.Duration{10 * time.Second, 14 * time.Second},
		partition: [2]time.Duration{16 * time.Second, 20 * time.Second}},
	{killAt: 10 * time.Second, horizon: 50 * time.Second,
		flapAt: 15 * time.Second, flapPeriod: 6 * time.Second, flapDown: 3 * time.Second, flaps: 3,
		degrade:   [2]time.Duration{20 * time.Second, 30 * time.Second},
		partition: [2]time.Duration{35 * time.Second, 45 * time.Second}},
}

// e13Timeline has no partition and a shorter horizon; in full mode its flap
// and degraded stretch are shorter too.
var e13Timeline = [2]faults{
	{killAt: 5 * time.Second, horizon: 20 * time.Second,
		flapAt: 8 * time.Second, flapPeriod: 4 * time.Second, flapDown: 2 * time.Second, flaps: 2,
		degrade: [2]time.Duration{10 * time.Second, 14 * time.Second}},
	{killAt: 10 * time.Second, horizon: 40 * time.Second,
		flapAt: 15 * time.Second, flapPeriod: 4 * time.Second, flapDown: 2 * time.Second, flaps: 2,
		degrade: [2]time.Duration{20 * time.Second, 28 * time.Second}},
}

// The four drills: E12 turns the resilience layer off and on; E13 keeps it
// on and turns self-telemetry off and on.
var (
	e12Off = drill{name: "off", timeline: e12Timeline}
	e12On  = drill{name: "on (breaker+backoff+watchdog)", resilient: true, timeline: e12Timeline}
	e13Off = drill{name: "off", resilient: true, timeline: e13Timeline}
	e13On  = drill{name: "on (registry+tracer)", resilient: true, telemetry: true, timeline: e13Timeline}
)

// drillStats is one chaos run's outcome as the resource-manager side would
// have experienced it, plus the self-telemetry readings (all zero when
// telemetry is off).
type drillStats struct {
	// DetectLatency is the mean delay from killing a client to the first
	// reachability-0 sample for a path ending at it.
	DetectLatency time.Duration
	// StaleActedReads counts reader decisions based on a sample older than
	// e12TTL — the fidelity failure the senescence watchdog exists to stop.
	StaleActedReads int
	// Sweeps counts completed poll sweeps over the horizon (more sweeps =
	// fresher data); Unanswered counts poll packets that got no response —
	// the wasted traffic. FastFails and ShedSweeps count resilience
	// interventions.
	Sweeps     int
	Unanswered uint64
	FastFails  uint64
	ShedSweeps uint64
	Records    uint64
	// ProcSwitches counts kernel switches into procs: the run's control
	// flow, counted.
	ProcSwitches uint64

	// Self-telemetry readings.
	Instruments int
	Spans       int64
	reg         *telemetry.Registry
	tracer      *telemetry.Tracer
}

// wastePerSweep is the unanswered polls per completed sweep.
func (s drillStats) wastePerSweep() float64 {
	if s.Sweeps == 0 {
		return 0
	}
	return float64(s.Unanswered) / float64(s.Sweeps)
}

// runDrill executes one chaos drill — permanent kills, a flapping host, a
// degraded segment and, on E12's timeline, a partition — against the COTS
// monitor and measures what the resource-manager side would have
// experienced. When w is non-nil the monitor's database streams its sample
// batches through the durable results seam; recording is purely
// observational, so the returned stats are identical either way (asserted
// by TestResultsRecordingZeroEffect), as they are with telemetry on and off
// (TestE13ZeroPerturbation).
func runDrill(quick bool, d drill, w core.BatchSink) drillStats {
	f := pick(quick, d.timeline[0], d.timeline[1])
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 7)
	m := cots.New(h.Mgmt, "public", time.Second)
	if w != nil {
		m.DB.EnableResults(w, 16)
	}
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if d.telemetry {
		reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer("cots", 512)
		m.EnableTelemetry(reg, tracer)
	}
	if d.resilient {
		// Tight per-attempt timeout with backoff and a hard per-request
		// budget, plus breakers that stop re-learning a dead agent every
		// sweep.
		m.Client.Timeout = 150 * time.Millisecond
		m.Client.Retries = 2
		m.EnableResilience(
			resilience.BreakerConfig{FailThreshold: 2, OpenFor: 6 * time.Second},
			resilience.NewBackoff(k.Rand(101), 50*time.Millisecond, 400*time.Millisecond, 0.2),
			450*time.Millisecond)
	}
	paths := h.PathList()
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	if d.resilient {
		wd := m.StartSenescenceWatchdog(500*time.Millisecond, e12TTL)
		defer wd.Stop()
	}

	s := chaos.NewSchedule(h.Net)
	for _, c := range drillKills {
		s.Kill(c, f.killAt)
	}
	s.Flap("c4", f.flapAt, f.flapPeriod, f.flapDown, f.flaps)
	s.Degrade(h.Eth, 0.25, f.degrade[0], f.degrade[1])
	if f.partition[1] > 0 {
		s.Partition([]netsim.Addr{"c1", "c2"}, f.partition[0], f.partition[1])
	}

	// The reader stands in for the resource manager: every 500ms it acts
	// on the current reachability of every path. With the layer enabled it
	// reads through the senescence gate and refuses stale samples; without
	// it, it trusts whatever the database last heard.
	staleActed := 0
	h.Mgmt.Spawn("drill-reader", func(p *sim.Proc) {
		for {
			p.Sleep(500 * time.Millisecond)
			for _, path := range paths {
				if d.resilient {
					// A fresh sample acted on is by construction never stale.
					m.QueryFresh(path.ID, metrics.Reachability, p.Now(), e12TTL)
				} else if meas, ok := m.Query(path.ID, metrics.Reachability); ok && p.Now()-meas.TakenAt > e12TTL {
					staleActed++ // decision taken on senescent data
				}
			}
		}
	})

	k.RunUntil(f.horizon)

	// Detection latency per killed client: first reachability-0 sample on
	// any path ending at it, after the kill.
	var lats []float64
	for _, c := range drillKills {
		if detected := firstUnreachable(m.DB, paths, c, f.killAt); detected >= 0 {
			lats = append(lats, (detected - f.killAt).Seconds())
		}
	}
	recordResultsErr(m.DB.FlushResults())
	return drillStats{
		DetectLatency:   time.Duration(metrics.Mean(lats) * float64(time.Second)),
		StaleActedReads: staleActed,
		Sweeps:          m.Sweeps,
		Unanswered:      m.Client.Stats.Requests - m.Client.Stats.Responses,
		FastFails:       m.RStats.FastFailedPolls,
		ShedSweeps:      m.RStats.ShedSweeps,
		Records:         m.DB.Records,
		ProcSwitches:    k.ProcSwitches(),
		Instruments:     reg.Len(),
		Spans:           tracer.Total(),
		reg:             reg,
		tracer:          tracer,
	}
}

// E12 runs the chaos schedule with the resilience layer off and on: the
// layer must detect failures sooner (breakers stop burning timeout windows
// on known-dead agents, so sweeps publish sooner) while eliminating
// decisions taken on senescent data (the watchdog marks them, the fresh
// query refuses them).
func E12(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E12",
		Title: "Resilience layer under chaos: detection latency, stale reads, wasted polls",
		Paper: "monitors must tolerate the failures they exist to detect; stale data is missing data, not evidence of health",
		Columns: []string{"resilience", "detection latency", "stale reads acted on",
			"sweeps", "unanswered polls/sweep", "fast-fails", "shed sweeps"},
	}
	for _, d := range []drill{e12Off, e12On} {
		st := runDrill(quick, d, nil)
		t.AddRow(d.name, report.Dur(st.DetectLatency), report.Count(uint64(st.StaleActedReads)),
			report.Count(uint64(st.Sweeps)), report.Num(fmt.Sprintf("%.1f", st.wastePerSweep()), st.wastePerSweep(), ""),
			report.Count(st.FastFails), report.Count(st.ShedSweeps))
	}
	t.AddNote("chaos: 3 permanent kills + flapping host + degraded segment + 10s partition on the HiPerD testbed")
	t.AddNote("off: dead agents burn timeout·(retries+1) per sweep and the reader trusts aging samples; on: open circuits fast-fail to reachability 0 and the senescence gate refuses samples older than %v", e12TTL)
	return t
}
