package experiments

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/director"
	"repro/internal/flowmeter"
	"repro/internal/hifi"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/topo"
	"repro/internal/vclock"
)

// streamBurst is the NTTCP burst the high-fidelity monitor measures the
// monitored stream with: the stream's own shape, 32 messages long.
var streamBurst = nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 32}

// The monitored stream's truths: the application rate, and the wire rate
// interface counters see (UDP/IP headers included).
var (
	streamAppBps  = nttcp.PeakOverheadBps(streamBurst)
	streamWireBps = float64(8192+netsim.HeaderOverhead) * 8 / 0.03
)

// watchStream runs the RTDS-shaped CBR stream s1 -> c5 (8192 B every
// 30 ms, over FDDI and Ethernet) on a fresh HiPer-D testbed and watches
// its path with the monitor newMon builds: submit the path, start, run to
// horizon. With cross set, ~1 Mb/s of unrelated traffic shares c5's
// interface, so counter-delta sensors over-report: interface counters
// cannot attribute octets to a path. It returns the monitor, the path and
// the path's OK throughput samples.
func watchStream(cross bool, horizon time.Duration, newMon func(h *topo.HiPerD) director.Member) (director.Member, core.PathID, []float64) {
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	netsim.NewSink(h.Clients[4], 9)
	(&netsim.CBRSource{Src: h.Servers[0], Dst: "c5", DstPort: 9,
		Size: 8192, Interval: 30 * time.Millisecond}).Run()
	if cross {
		netsim.NewSink(h.Clients[4], 10)
		(&netsim.CBRSource{Src: h.Net.Node("w-eth-1"), Dst: "c5", DstPort: 10,
			Size: 1000, Interval: 8 * time.Millisecond}).Run()
	}
	mon := newMon(h)
	path := core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4])
	mon.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}})
	mon.Start()
	k.RunUntil(horizon)
	return mon, path.ID, okValues(mon.Database(), path.ID, metrics.Throughput)
}

// worstRelErr is the largest relative error of any of vals against truth.
func worstRelErr(vals []float64, truth float64) float64 {
	worst := 0.0
	for _, v := range vals {
		if e := metrics.RelErr(v, truth); e > worst {
			worst = e
		}
	}
	return worst
}

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

	variants := []struct{ poll, gran time.Duration }{
		{1 * time.Second, 10 * time.Millisecond},
		{500 * time.Millisecond, 1 * time.Second},
		{1500 * time.Millisecond, 1 * time.Second},
		{5 * time.Second, 1 * time.Second},
		{30 * time.Second, 1 * time.Second},
	}
	if quick {
		variants = variants[:2]
	}

	// Direct NTTCP measurement first.
	mon, path, vals := watchStream(true, horizon, func(h *topo.HiPerD) director.Member {
		return hifi.New(h.Mgmt, streamBurst, 1)
	})
	meas, _ := mon.Query(path, metrics.Throughput)
	t.AddRow("nttcp direct", "-", "-", report.Bps(meas.Value),
		report.Pct(metrics.RelErr(meas.Value, streamAppBps)), report.Pct(worstRelErr(vals, streamAppBps)), meas.Quality)

	for _, v := range variants {
		_, _, vals := watchStream(true, horizon, func(h *topo.HiPerD) director.Member {
			h.Clients[4].LocalClock = &vclock.Clock{Granularity: v.gran}
			return cots.New(h.Mgmt, "public", v.poll)
		})
		mean := metrics.Mean(vals)
		t.AddRow("cots counter-delta", report.Dur(v.poll), report.Dur(v.gran), report.Bps(mean),
			report.Pct(metrics.RelErr(mean, streamWireBps)), report.Pct(worstRelErr(vals, streamWireBps)), core.QualityApproximate)
	}
	// Passive flow meter (the RTFM direction of the paper's related work):
	// path-specific like NTTCP, passive like the counters.
	_, _, vals = watchStream(true, horizon, func(h *topo.HiPerD) director.Member {
		meter := flowmeter.New(h.Net.K)
		meter.Attach(h.Eth)
		mon := cots.New(h.Mgmt, "public", 5*time.Second)
		mon.UseFlowMeter(meter)
		return mon
	})
	vals = slices.DeleteFunc(vals, func(v float64) bool { return v <= 0 })
	mean := metrics.Mean(vals)
	t.AddRow("flow meter (passive, host-pair)", report.Dur(5*time.Second), "-", report.Bps(mean),
		report.Pct(metrics.RelErr(mean, streamWireBps)), report.Pct(worstRelErr(vals, streamWireBps)), core.QualityApproximate)
	t.AddNote("truth: application rate %s; counters see wire rate %s (headers) PLUS ~1 Mb/s of unrelated cross traffic into the same interface",
		report.Bps(streamAppBps), report.Bps(streamWireBps))
	t.AddNote("coarse agent clocks corrupt short-interval deltas; the passive flow meter attributes octets per host pair and sidesteps both problems")
	return t
}
