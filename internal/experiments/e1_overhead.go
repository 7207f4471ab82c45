package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/hifi"
	"repro/internal/metrics"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/topo"
)

// rtdsCfg is the application traffic shape of §5.1.2.1: L=8192 B, P=30 ms.
func rtdsCfg() nttcp.Config {
	return nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 32, Timeout: time.Second}
}

// hifiRun is one hifi sweep's outcome: the monitor after the horizon, the
// mean sample spacing on the first path (the senescence proxy), and the
// largest load the run put on each medium in any 100 ms bucket, matching
// the paper's "peak overhead" framing.
type hifiRun struct {
	m                 *hifi.Monitor
	spacing           time.Duration
	peakFDDI, peakEth float64
}

// hifiModes are the two sweep modes of §5.1.2.1: every path at once, and
// the test sequencer's one path at a time.
var hifiModes = []struct {
	name        string
	concurrency int
}{
	{"parallel (all 27)", 27},
	{"sequencer (serial)", 1},
}

// hifiSweep runs the high-fidelity monitor with burst cfg and concurrency
// conc over all 27 HiPer-D paths until horizon: the sweep E1, E2 and A2
// read their intrusiveness and senescence figures from.
func hifiSweep(cfg nttcp.Config, conc int, horizon time.Duration) hifiRun {
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	r := hifiRun{m: hifi.New(h.Mgmt, cfg, conc)}
	paths := h.PathList()
	r.m.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	r.m.Start()
	const bucket = 100 * time.Millisecond
	lastFDDI, lastEth := h.FDDI.Stats().Octets, h.Eth.Stats().Octets
	sampler := k.Every(bucket, func() {
		f, e := h.FDDI.Stats().Octets, h.Eth.Stats().Octets
		r.peakFDDI = max(r.peakFDDI, float64(f-lastFDDI)*8/bucket.Seconds())
		r.peakEth = max(r.peakEth, float64(e-lastEth)*8/bucket.Seconds())
		lastFDDI, lastEth = f, e
	})
	k.RunUntil(horizon)
	sampler.Stop()
	r.spacing = historySpacing(r.m.DB, paths[0].ID, metrics.Throughput)
	return r
}

// E1 reproduces §5.1.2.1: monitoring all 27 paths in parallel offers
// C·S·(L/P) ≈ 59 Mb/s — "a single application consuming a significant
// percentage of the capacity of both the FDDI and ATM networks" — while the
// test sequencer reduces the peak to (L/P) ≈ 2.18 Mb/s.
func E1(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E1",
		Title: "High-fidelity monitor peak overhead, 27 paths (C=9, S=3, L=8192 B, P=30 ms)",
		Paper: "parallel 59 Mb/s (9*3*(8192 B/.03 s)*8); sequencer 2.18 Mb/s ((8192 B/.03 s)*8)",
		Columns: []string{"mode", "analytic peak", "measured FDDI load", "measured Eth load",
			"paths refreshed"},
	}
	window := pick(quick, 2*time.Second, 5*time.Second)
	for _, mode := range hifiModes {
		r := hifiSweep(rtdsCfg(), mode.concurrency, window)
		t.AddRow(mode.name, report.Bps(r.m.PeakOverheadBps(mode.concurrency)), report.Bps(r.peakFDDI), report.Bps(r.peakEth), r.m.DB.Series())
	}
	t.AddNote("analytic peak excludes UDP/IP and framing overhead; measured wire load includes it")
	t.AddNote("the 10 Mb/s Ethernet saturates under the parallel monitor — the scalability failure of §5.1.2.1")
	return t
}
