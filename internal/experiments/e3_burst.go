package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/sim"
)

// E3 reproduces §5.1.2: "bursts which are too short yield inaccurate
// results because they are too susceptible to transient conditions. For
// each application, an optimal burst size should be found through
// experimentation." We sweep the burst length under bursty on/off cross
// traffic and report the dispersion of the throughput estimate.
func E3(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E3",
		Title: "Throughput-estimate dispersion vs burst length under bursty cross traffic",
		Paper: "short bursts inaccurate (transient-susceptible); optimal burst found experimentally",
		Columns: []string{"burst msgs", "trials", "mean throughput", "stddev",
			"coeff of variation", "worst rel err"},
	}
	trials := pick(quick, 8, 24)
	bursts := []int{2, 4, 8, 16, 32, 64}
	if quick {
		bursts = []int{2, 8, 32}
	}
	// Reference: the offered application rate (what an infinitely long
	// burst converges to when the wire has capacity on average).
	cfg := nttcp.Config{MsgLen: 1024, InterSend: 10 * time.Millisecond, Timeout: 2 * time.Second}
	truth := nttcp.PeakOverheadBps(cfg)

	for _, burst := range bursts {
		var samples []float64
		k := newKernel()
		nw := netsim.New(k, 13)
		src := nw.NewHost("meas-src")
		dst := nw.NewHost("meas-dst")
		noiseDst := nw.NewHost("noise-dst")
		seg := lan(nw, netsim.Ethernet10(), src, dst, noiseDst)
		netsim.NewSink(noiseDst, 9)
		// On/off transients from three stations that jointly oversubscribe
		// the wire during on-periods: a short burst that lands inside one
		// sees heavy contention; one that lands outside sees a clean wire.
		for i := 0; i < 3; i++ {
			ns := nw.NewHost(netsim.Addr(fmt.Sprintf("noise-src-%d", i)))
			seg.Attach(ns)
			(&netsim.OnOffSource{
				Src: ns, Dst: "noise-dst", DstPort: 9, Size: 1200,
				PeakBps: 7_000_000, MeanOn: 300 * time.Millisecond, MeanOff: 400 * time.Millisecond,
				Seed: 99 + int64(i),
			}).Run()
		}
		nttcp.StartServer(dst, 0)
		c := cfg
		c.Count = burst
		cli := nttcp.NewClient(src, c)
		src.Spawn("trials", func(p *sim.Proc) {
			for i := 0; i < trials; i++ {
				res, err := cli.Measure(p, "meas-dst", 0)
				if err == nil && res.Received > 1 {
					samples = append(samples, res.ThroughputBps)
				}
				p.Sleep(150 * time.Millisecond) // decorrelate from the noise phase
			}
		})
		k.RunUntil(10 * time.Minute)
		k.Close()
		mean := metrics.Mean(samples)
		sd := metrics.StdDev(samples)
		cv := 0.0
		if mean > 0 {
			cv = sd / mean
		}
		t.AddRow(burst, len(samples), report.Bps(mean), report.Bps(sd),
			report.Pct(cv), report.Pct(worstRelErr(samples, truth)))
	}
	t.AddNote("offered application rate (ground truth) is %s", report.Bps(truth))
	t.AddNote("dispersion shrinks with burst length: long bursts average over the on/off transient")
	return t
}
