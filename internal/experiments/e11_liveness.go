package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/topo"
)

// E11 reproduces §5.2.4's connectionless-SNMP observation: "a network
// monitor may need to perform background polling to detect network failure
// between it and the network element which would prevent the reception of
// traps." Background polling is the only failure detector, so its interval
// buys detection latency with network overhead.
func E11(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E11",
		Title: "Background liveness polling: failure-detection latency vs overhead",
		Paper: "connectionless SNMP requires background polling to detect element failure; polling a large network can be intrusive",
		Columns: []string{"poll interval", "detection latency (mean of trials)",
			"poll traffic (27 paths)", "polls to dead element"},
	}
	intervals := []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second,
		5 * time.Second, 10 * time.Second}
	if quick {
		intervals = []time.Duration{time.Second, 5 * time.Second}
	}
	trials := pick(quick, 2, 4)

	for _, interval := range intervals {
		var latencies []float64
		var bytesPerSec float64
		var deadPolls uint64
		for trial := 0; trial < trials; trial++ {
			k := newKernel()
			h := topo.BuildHiPerD(k, int64(trial+1))
			m := cots.New(h.Mgmt, "public", interval)
			m.Submit(core.Request{Paths: h.PathList(), Metrics: []metrics.Metric{metrics.Reachability}})
			m.Start()
			// Fail c3 at a phase that varies per trial.
			failAt := 7*time.Second + time.Duration(trial)*interval/3
			k.At(failAt, func() { h.Clients[2].SetUp(false) })
			horizon := failAt + 4*interval + 10*time.Second
			k.RunUntil(horizon)
			// Detection: first current sample with reachability 0 for any
			// path ending at c3.
			detected := firstUnreachable(m.DB, h.PathList(), "c3", failAt)
			if detected >= 0 {
				latencies = append(latencies, (detected - failAt).Seconds())
			}
			bytesPerSec += float64(m.Client.Stats.BytesSent+m.Client.Stats.BytesRecv) / horizon.Seconds()
			deadPolls += m.Client.Stats.Timeouts
			k.Close()
		}
		meanLat := time.Duration(metrics.Mean(latencies) * float64(time.Second))
		t.AddRow(report.Dur(interval), report.Dur(meanLat),
			report.Bps(bytesPerSec*8/float64(trials)), report.Count(deadPolls/uint64(trials)))
	}
	t.AddNote("detection latency ≈ poll phase + client timeout+retry; overhead ∝ paths/interval — the §5.2.4 intrusiveness warning")
	return t
}
