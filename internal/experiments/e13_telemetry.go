package experiments

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/hifi"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// e13Outcome is one chaos run's simulation-visible result plus the
// self-telemetry readings (all zero when the layer is disabled).
type e13Outcome struct {
	// Simulation-visible outcome: must be bit-identical with telemetry on
	// and off, or the observer is perturbing the experiment.
	DetectLatency time.Duration
	Sweeps        int
	FastFails     uint64
	Records       uint64
	ProcSwitches  uint64 // kernel switches into procs: the run's control flow, counted

	// Self-telemetry readings.
	Instruments int
	Spans       int64
	reg         *telemetry.Registry
	tracer      *telemetry.Tracer
}

// runE13 repeats the E12-shape chaos run (resilience on) against the COTS
// monitor, optionally with the telemetry layer attached, and captures both
// the simulation outcome and the instrument readings.
func runE13(quick, telemetryOn bool) e13Outcome {
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 7)
	m := cots.New(h.Mgmt, "public", time.Second)

	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if telemetryOn {
		reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer("cots", 512)
		m.EnableTelemetry(reg, tracer)
	}

	m.Client.Timeout = 150 * time.Millisecond
	m.Client.Retries = 2
	m.EnableResilience(
		resilience.BreakerConfig{FailThreshold: 2, OpenFor: 6 * time.Second},
		resilience.NewBackoff(k.Rand(101), 50*time.Millisecond, 400*time.Millisecond, 0.2),
		450*time.Millisecond)

	paths := h.PathList()
	m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()
	wd := m.StartSenescenceWatchdog(k, 500*time.Millisecond, e12TTL)
	defer wd.Stop()

	killAt := pick(quick, 5*time.Second, 10*time.Second)
	horizon := pick(quick, 20*time.Second, 40*time.Second)
	s := chaos.NewSchedule(h.Net)
	for _, c := range []int{6, 7, 8} { // c7..c9 die and stay dead
		s.Kill(h.Clients[c].Name, killAt)
	}
	s.Flap("c4", pick(quick, 8*time.Second, 15*time.Second), 4*time.Second, 2*time.Second, 2)
	s.Degrade(h.Eth, 0.25, pick(quick, 10*time.Second, 20*time.Second), pick(quick, 14*time.Second, 28*time.Second))

	// A resource-manager stand-in reads every path through the senescence
	// gate each 500ms, so the fresh-query hit/miss instruments see the same
	// load E12's reader generates. It runs identically on and off.
	h.Mgmt.Spawn("e13-reader", func(p *sim.Proc) {
		for {
			p.Sleep(500 * time.Millisecond)
			for _, path := range paths {
				m.QueryFresh(path.ID, metrics.Reachability, p.Now(), e12TTL)
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
	return e13Outcome{
		DetectLatency: time.Duration(metrics.Mean(lats) * float64(time.Second)),
		Sweeps:        m.Sweeps,
		FastFails:     m.RStats.FastFailedPolls,
		Records:       m.DB.Records,
		ProcSwitches:  k.ProcSwitches(),
		Instruments:   reg.Len(),
		Spans:         tracer.Total(),
		reg:           reg,
		tracer:        tracer,
	}
}

// CollectTelemetry runs the instrumented E13 chaos scenario once and
// returns the populated registry and tracer, for cmd/experiments'
// -telemetry export. The export carries one instrument more than E13's
// table counts: the kernel's own sim.proc_switches, registered here so that
// the table's 30 stays the monitor stack's.
func CollectTelemetry(quick bool) (*telemetry.Registry, *telemetry.Tracer) {
	out := runE13(quick, true)
	out.reg.CounterFunc("sim.proc_switches", func() uint64 { return out.ProcSwitches })
	return out.reg, out.tracer
}

// e13HifiOverheadBps runs the high-fidelity sequencer with telemetry on and
// returns its live serialized-sweep intrusiveness gauge — the paper's
// L/P ≈ 2.18 Mb/s figure read off a running monitor instead of derived on
// paper.
func e13HifiOverheadBps(quick bool) (live, analytic float64) {
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 7)
	cfg := nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond,
		Count: pickN(quick, 4, 8), Timeout: time.Second}
	m := hifi.New(h.Mgmt, cfg, 1)
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, nil)
	m.Submit(core.Request{Paths: h.PathList(), Metrics: []metrics.Metric{metrics.Throughput}})
	m.Start()
	k.RunUntil(pick(quick, 15*time.Second, 30*time.Second))
	return reg.Gauge("hifi.sweep_overhead_bps").Value(), nttcp.PeakOverheadBps(cfg)
}

// e13SweepTrace renders the last completed COTS sweep span and its first
// child polls from the tracer's ring, for the table notes.
func e13SweepTrace(tr *telemetry.Tracer, maxPolls int) []string {
	var sweep telemetry.SpanRecord
	found := false
	tr.Each(func(r telemetry.SpanRecord) bool {
		if r.Name == "cots.sweep" && !r.Open() {
			sweep = r // keep the newest completed sweep
			found = true
		}
		return true
	})
	if !found {
		return nil
	}
	out := []string{fmt.Sprintf("trace: %s [%s - %s] (%v)", sweep.Name,
		telemetry.FormatSpanTime(sweep.Start), telemetry.FormatSpanTime(sweep.End), sweep.Duration())}
	polls, shown := 0, 0
	tr.Each(func(r telemetry.SpanRecord) bool {
		if r.Parent != sweep.ID {
			return true
		}
		polls++
		if shown < maxPolls {
			out = append(out, fmt.Sprintf("trace:   %s %s [%s - %s] (%v)", r.Name, r.Tag,
				telemetry.FormatSpanTime(r.Start), telemetry.FormatSpanTime(r.End), r.Duration()))
			shown++
		}
		return true
	})
	if polls > shown {
		out = append(out, fmt.Sprintf("trace:   ... %d more polls in this sweep", polls-shown))
	}
	return out
}

// E13 attaches the self-telemetry layer to the E12 chaos run and verifies
// the observer effect is nil: the simulation outcome (detection latency,
// sweeps, fast-fails, records) is bit-identical with telemetry on and off,
// while the instrumented run additionally yields live instrument readings
// and a sweep trace. Wall-clock overhead is excluded from the table by
// design (tables are byte-identical across runs); it is bounded instead by
// the benchmarks in internal/telemetry (0 allocs/op on both paths) and
// reported in EXPERIMENTS.md.
func E13(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E13",
		Title: "Self-telemetry: zero-perturbation monitor-of-the-monitor",
		Paper: "a monitor's own intrusiveness and fidelity (§4.3) are themselves resources worth monitoring",
		Columns: []string{"telemetry", "detection latency", "sweeps", "fast-fails",
			"db records", "instruments", "spans traced"},
	}
	var outcomes [2]e13Outcome
	for i, on := range []bool{false, true} {
		outcomes[i] = runE13(quick, on)
		name := "off"
		if on {
			name = "on (registry+tracer)"
		}
		st := outcomes[i]
		t.AddRow(name, report.Dur(st.DetectLatency), report.Count(uint64(st.Sweeps)),
			report.Count(st.FastFails), report.Count(st.Records),
			report.Count(uint64(st.Instruments)), report.Count(uint64(st.Spans)))
	}
	same := outcomes[0].DetectLatency == outcomes[1].DetectLatency &&
		outcomes[0].Sweeps == outcomes[1].Sweeps &&
		outcomes[0].FastFails == outcomes[1].FastFails &&
		outcomes[0].Records == outcomes[1].Records
	if same {
		t.AddNote("observer effect: none — all simulation-visible columns identical with telemetry on and off")
	} else {
		t.AddNote("observer effect: DETECTED — telemetry perturbed the simulation outcome (bug)")
	}
	on := outcomes[1]
	if reqs := on.reg.Counter("cots.snmp.requests").Value(); reqs > 0 {
		hits := on.reg.Counter("cots.db.fresh_hits").Value()
		misses := on.reg.Counter("cots.db.fresh_misses").Value()
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		t.AddNote("live readings: %d snmp requests (%d retries, %d timeouts), %d breaker opens, fresh-query hit rate %s",
			reqs, on.reg.Counter("cots.snmp.retries").Value(),
			on.reg.Counter("cots.snmp.timeouts").Value(),
			on.reg.Counter("cots.breaker.opens").Value(), report.Pct(hitRate))
	}
	live, analytic := e13HifiOverheadBps(quick)
	t.AddNote("hifi sequencer live intrusiveness gauge: %s vs analytic L/P %s (paper: 2.18 Mb/s)",
		report.Bps(live), report.Bps(analytic))
	for _, line := range e13SweepTrace(on.tracer, 4) {
		t.AddNote("%s", line)
	}
	return t
}
