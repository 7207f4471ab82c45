package experiments

import (
	"fmt"
	"time"

	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// CollectTelemetry runs the instrumented E13 chaos scenario once and
// returns the populated registry and tracer, for cmd/experiments'
// -telemetry export. The export carries one instrument more than E13's
// table counts: the kernel's own sim.proc_switches, registered here so that
// the table's 30 stays the monitor stack's.
func CollectTelemetry(quick bool) (*telemetry.Registry, *telemetry.Tracer) {
	out := runDrill(quick, e13On, nil)
	out.reg.CounterFunc("sim.proc_switches", func() uint64 { return out.ProcSwitches })
	return out.reg, out.tracer
}

// e13HifiOverheadBps runs the high-fidelity sequencer and returns its
// serialized-sweep intrusiveness gauge — the paper's L/P ≈ 2.18 Mb/s figure
// read off a monitor's self-telemetry instead of derived on paper. The
// gauge reads the monitor's state when asked, so registering it after the
// run gives the reading a live dump at the horizon would.
func e13HifiOverheadBps(quick bool) (live, analytic float64) {
	cfg := nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond,
		Count: pick(quick, 4, 8), Timeout: time.Second}
	r := hifiSweep(cfg, 1, pick(quick, 15*time.Second, 30*time.Second))
	reg := telemetry.NewRegistry()
	r.m.EnableTelemetry(reg, nil)
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

// E13 attaches the self-telemetry layer to the shared chaos drill (runDrill,
// on E13's partition-free timeline with resilience on) and verifies
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
	var outcomes [2]drillStats
	for i, d := range []drill{e13Off, e13On} {
		st := runDrill(quick, d, nil)
		outcomes[i] = st
		t.AddRow(d.name, report.Dur(st.DetectLatency), report.Count(uint64(st.Sweeps)),
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
