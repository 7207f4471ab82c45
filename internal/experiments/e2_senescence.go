package experiments

import (
	"time"

	"repro/internal/nttcp"
	"repro/internal/report"
)

// E2 reproduces the senescence half of the §5.1.2.1 tradeoff: with the
// sequencer, "the minimum time between samples for a given path was now
// C·S·T", versus T for the parallel monitor.
func E2(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E2",
		Title: "Per-path sample spacing (senescence) under each sweep mode",
		Paper: "sequencer raises minimum sample spacing from T to C·S·T = 27T",
		Columns: []string{"mode", "single-burst T", "sweep time", "mean spacing s1->c1",
			"analytic C·S·T"},
	}
	// A lighter burst than the RTDS shape keeps the parallel variant off
	// the Ethernet's saturation knee so spacing reflects scheduling.
	cfg := nttcp.Config{MsgLen: 256, InterSend: 10 * time.Millisecond, Count: pick(quick, 4, 8), Timeout: time.Second}
	burstT := time.Duration(cfg.Count) * cfg.InterSend
	horizon := pick(quick, 20*time.Second, 60*time.Second)
	for _, mode := range hifiModes {
		r := hifiSweep(cfg, mode.concurrency, horizon)
		t.AddRow(mode.name, report.Dur(burstT), report.Dur(r.m.SweepTime),
			report.Dur(r.spacing), report.Dur(27*burstT))
	}
	t.AddNote("T includes control handshakes, so measured spacing slightly exceeds the analytic burst time")
	return t
}
