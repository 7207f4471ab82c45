package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/flowmeter"
	"repro/internal/hifi"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vclock"
)

// E7 reproduces §5.2.4's fidelity finding: "Neither the RMON probe nor the
// Cisco router was capable of matching the fidelity of the NTTCP network
// analysis tool. Both systems provide a number [of] metrics that may be
// used to approximate end-to-end throughput ... Clock granularity appears
// to be limited in both the probe and the router."
//
// An RTDS-shaped stream runs from s1 to c5; the NTTCP monitor measures it
// directly while the COTS monitor approximates it from ifInOctets deltas
// timed by agent sysUpTime, across poll intervals and clock granularities.
func E7(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E7",
		Title: "End-to-end throughput: NTTCP direct vs counter-delta approximations",
		Paper: "COTS counters approximate throughput; clock granularity limits probe/router fidelity",
		Columns: []string{"sensor", "poll interval", "agent clock gran", "estimate",
			"rel err vs truth", "worst sample err", "quality"},
	}
	horizon := pick(quick, 30*time.Second, 90*time.Second)

	type variant struct {
		name string
		poll time.Duration
		gran time.Duration
	}
	variants := []variant{
		{"cots counter-delta", 1 * time.Second, 10 * time.Millisecond},
		{"cots counter-delta", 500 * time.Millisecond, 1 * time.Second},
		{"cots counter-delta", 1500 * time.Millisecond, 1 * time.Second},
		{"cots counter-delta", 5 * time.Second, 1 * time.Second},
		{"cots counter-delta", 30 * time.Second, 1 * time.Second},
	}
	if quick {
		variants = variants[:2]
	}

	// The application stream: RTDS shape, s1 -> c5 over FDDI + Ethernet.
	appBps := nttcp.PeakOverheadBps(nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond})
	// Wire-level truth includes UDP/IP headers (what counters see).
	wireBps := float64(8192+netsim.HeaderOverhead) * 8 / 0.03

	// The monitored stream shares c5's interface with ~1 Mb/s of cross
	// traffic, so counter-delta sensors over-report: interface counters
	// cannot attribute octets to a path.
	runApp := func(k *sim.Kernel, h *topo.HiPerD) {
		netsim.NewSink(h.Clients[4], 9)
		(&netsim.CBRSource{Src: h.Servers[0], Dst: "c5", DstPort: 9,
			Size: 8192, Interval: 30 * time.Millisecond}).Run()
		netsim.NewSink(h.Clients[4], 10)
		(&netsim.CBRSource{Src: h.Net.Node("w-eth-1"), Dst: "c5", DstPort: 10,
			Size: 1000, Interval: 8 * time.Millisecond}).Run()
	}

	// Direct NTTCP measurement first.
	{
		k := newKernel()
		h := topo.BuildHiPerD(k, 1)
		runApp(k, h)
		mon := hifi.New(h.Mgmt, nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 32}, 1)
		path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4])
		mon.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}})
		mon.Start()
		k.RunUntil(horizon)
		meas, _ := mon.Query(path.ID, metrics.Throughput)
		var worst float64
		mon.DB.EachHistory(path.ID, metrics.Throughput, 0, func(m core.Measurement) bool {
			if m.OK() {
				if e := metrics.RelErr(m.Value, appBps); e > worst {
					worst = e
				}
			}
			return true
		})
		t.AddRow("nttcp direct", "-", "-", report.Bps(meas.Value),
			report.Pct(metrics.RelErr(meas.Value, appBps)), report.Pct(worst), meas.Quality)
		k.Close()
	}

	for _, v := range variants {
		k := newKernel()
		h := topo.BuildHiPerD(k, 1)
		runApp(k, h)
		h.Clients[4].LocalClock = &vclock.Clock{Granularity: v.gran}
		mon := cots.New(h.Mgmt, "public", v.poll)
		path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4])
		mon.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}})
		mon.Start()
		k.RunUntil(horizon)
		// Average the post-warm-up estimates.
		var vals []float64
		var worst float64
		mon.DB.EachHistory(path.ID, metrics.Throughput, 0, func(m core.Measurement) bool {
			if m.OK() {
				vals = append(vals, m.Value)
				if e := metrics.RelErr(m.Value, wireBps); e > worst {
					worst = e
				}
			}
			return true
		})
		mean := metrics.Mean(vals)
		t.AddRow(v.name, report.Dur(v.poll), report.Dur(v.gran), report.Bps(mean),
			report.Pct(metrics.RelErr(mean, wireBps)), report.Pct(worst), core.QualityApproximate)
		k.Close()
	}
	// Passive flow meter (the RTFM direction of the paper's related work):
	// path-specific like NTTCP, passive like the counters.
	{
		k := newKernel()
		h := topo.BuildHiPerD(k, 1)
		runApp(k, h)
		meter := flowmeter.New(k)
		meter.Attach(h.Eth)
		mon := cots.New(h.Mgmt, "public", 5*time.Second)
		mon.UseFlowMeter(meter)
		path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4])
		mon.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}})
		mon.Start()
		k.RunUntil(horizon)
		var vals []float64
		var worst float64
		mon.DB.EachHistory(path.ID, metrics.Throughput, 0, func(m core.Measurement) bool {
			if m.OK() && m.Value > 0 {
				vals = append(vals, m.Value)
				if e := metrics.RelErr(m.Value, wireBps); e > worst {
					worst = e
				}
			}
			return true
		})
		mean := metrics.Mean(vals)
		t.AddRow("flow meter (passive, host-pair)", "5.00s", "-", report.Bps(mean),
			report.Pct(metrics.RelErr(mean, wireBps)), report.Pct(worst), core.QualityApproximate)
		k.Close()
	}
	t.AddNote("truth: application rate %s; counters see wire rate %s (headers) PLUS ~1 Mb/s of unrelated cross traffic into the same interface",
		report.Bps(appBps), report.Bps(wireBps))
	t.AddNote("coarse agent clocks corrupt short-interval deltas; the passive flow meter attributes octets per host pair and sidesteps both problems")
	return t
}
