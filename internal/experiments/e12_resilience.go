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
	"repro/internal/topo"
)

// e12TTL is the senescence bound: a reachability sample older than this is
// too old to base a survivability decision on.
const e12TTL = 2 * time.Second

// e12Stats is one chaos run's outcome, with and without the resilience
// layer.
type e12Stats struct {
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
}

// runE12 executes one chaos schedule — permanent kills, a flapping host, a
// degraded segment, and a partition — against the COTS monitor, with the
// resilience layer either enabled or disabled, and measures what the
// resource-manager side would have experienced. When w is non-nil the
// monitor's database streams its sample batches through the durable
// results seam; recording is purely observational, so the returned stats
// are identical either way (asserted by TestResultsRecordingZeroEffect).
func runE12(quick, enabled bool, w core.BatchSink) e12Stats {
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 7)
	m := cots.New(h.Mgmt, "public", time.Second)
	if w != nil {
		m.DB.EnableResults(w, 16)
	}
	if enabled {
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

	var wd sim.Timer
	if enabled {
		wd = m.StartSenescenceWatchdog(k, 500*time.Millisecond, e12TTL)
		defer wd.Stop()
	}

	// The chaos schedule scales with quick mode but keeps all four fault
	// flavors: permanent kill, flap, degrade, partition.
	killAt := pick(quick, 5*time.Second, 10*time.Second)
	horizon := pick(quick, 24*time.Second, 50*time.Second)
	s := chaos.NewSchedule(h.Net)
	for _, c := range []int{6, 7, 8} { // c7..c9 die and stay dead
		s.Kill(h.Clients[c].Name, killAt)
	}
	if quick {
		s.Flap("c4", 8*time.Second, 4*time.Second, 2*time.Second, 2)
		s.Degrade(h.Eth, 0.25, 10*time.Second, 14*time.Second)
		s.Partition([]netsim.Addr{"c1", "c2"}, 16*time.Second, 20*time.Second)
	} else {
		s.Flap("c4", 15*time.Second, 6*time.Second, 3*time.Second, 3)
		s.Degrade(h.Eth, 0.25, 20*time.Second, 30*time.Second)
		s.Partition([]netsim.Addr{"c1", "c2"}, 35*time.Second, 45*time.Second)
	}

	// The reader stands in for the resource manager: every 500ms it acts
	// on the current reachability of every path. With the layer enabled it
	// reads through the senescence gate and refuses stale samples; without
	// it, it trusts whatever the database last heard.
	staleActed := 0
	h.Mgmt.Spawn("e12-reader", func(p *sim.Proc) {
		for {
			p.Sleep(500 * time.Millisecond)
			for _, path := range paths {
				if enabled {
					if _, ok := m.QueryFresh(path.ID, metrics.Reachability, p.Now(), e12TTL); !ok {
						continue // stale or missing: no decision taken
					}
					// Fresh sample acted on; by construction never stale.
				} else {
					meas, ok := m.Query(path.ID, metrics.Reachability)
					if !ok {
						continue
					}
					if p.Now()-meas.TakenAt > e12TTL {
						staleActed++ // decision taken on senescent data
					}
				}
			}
		}
	})

	k.RunUntil(horizon)

	// Detection latency per killed client: first reachability-0 sample on
	// any path ending at it, after the kill.
	var lats []float64
	for _, c := range []netsim.Addr{"c7", "c8", "c9"} {
		detected := firstUnreachable(m.DB, paths, c, killAt)
		if detected >= 0 {
			lats = append(lats, (detected - killAt).Seconds())
		}
	}
	out := e12Stats{
		DetectLatency:   time.Duration(metrics.Mean(lats) * float64(time.Second)),
		StaleActedReads: staleActed,
		Sweeps:          m.Sweeps,
		Unanswered:      m.Client.Stats.Requests - m.Client.Stats.Responses,
	}
	out.FastFails = m.RStats.FastFailedPolls
	out.ShedSweeps = m.RStats.ShedSweeps
	if w != nil {
		if err := m.DB.FlushResults(); err != nil {
			panic(fmt.Sprintf("experiments: results write failed: %v", err))
		}
	}
	return out
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
	for _, enabled := range []bool{false, true} {
		st := runE12(quick, enabled, nil)
		name := "off"
		if enabled {
			name = "on (breaker+backoff+watchdog)"
		}
		wastePerSweep := 0.0
		if st.Sweeps > 0 {
			wastePerSweep = float64(st.Unanswered) / float64(st.Sweeps)
		}
		t.AddRow(name, report.Dur(st.DetectLatency), report.Count(uint64(st.StaleActedReads)),
			report.Count(uint64(st.Sweeps)), fmt.Sprintf("%.1f", wastePerSweep),
			report.Count(st.FastFails), report.Count(st.ShedSweeps))
	}
	t.AddNote("chaos: 3 permanent kills + flapping host + degraded segment + 10s partition on the HiPerD testbed")
	t.AddNote("off: dead agents burn timeout·(retries+1) per sweep and the reader trusts aging samples; on: open circuits fast-fail to reachability 0 and the senescence gate refuses samples older than %v", e12TTL)
	return t
}
