package integration

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topo"
)

// TestDegradedLANStallsReachLatencySketch: a cots monitor records one-way
// latency into quantile sketches over paths into two LANs, and one LAN
// degrades mid-run. The degraded link's inflated poll round trips must
// surface in the latency sketch's stall and micro-stall counters of the
// paths into that LAN, and in no counter of the paths into the healthy one.
func TestDegradedLANStallsReachLatencySketch(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildScaled(k, 17, 3, 3)

	mon := cots.New(h.Mgmt, "public", 500*time.Millisecond)
	// Short per-attempt timeout with three retries: on the lossy LAN a
	// poll that burns one timeout reads as a micro-stall (one-way ≈
	// RTT/2 ≈ 75ms) and one that burns two or more as a stall (≥150ms),
	// against the sketch thresholds below.
	mon.Client.Timeout = 150 * time.Millisecond
	mon.Client.Retries = 3
	mon.Database().EnableSketches(sketch.Thresholds{Stall: 0.12, MicroStall: 0.05})

	// A server and a client process on each of the first two LANs.
	ref := func(host int, proc string) core.ProcessRef {
		return core.ProcessRef{Host: h.Hosts[host].Name, Process: proc}
	}
	paths := core.CrossProductPaths(
		[]core.ProcessRef{ref(0, "app-1"), ref(3, "app-2")},
		[]core.ProcessRef{ref(1, "cl-1"), ref(4, "cl-2")})
	mon.Submit(core.Request{Paths: paths,
		Metrics: []metrics.Metric{metrics.Reachability, metrics.OneWayLatency}})
	mon.Start()

	// LAN 1 degrades mid-run: 40% loss lengthens the monitor's polls into
	// cl-1's host.
	chaos.NewSchedule(h.Net).Degrade(h.LANs[0], 0.4, 8*time.Second, 40*time.Second)
	k.RunUntil(40 * time.Second)

	// Polls into the degraded LAN that needed one retry read as
	// micro-stalls, two retries as stalls.
	victim := h.Hosts[1].Name
	var stalls, micro uint64
	for _, path := range paths {
		sum, ok := mon.Database().SketchSummary(path.ID, metrics.OneWayLatency)
		if !ok {
			t.Fatalf("no latency sketch for %s", path.ID)
		}
		if path.Hops[1].Host != victim {
			if sum.Stalls != 0 || sum.MicroStalls != 0 {
				t.Fatalf("%s on the healthy LAN: stalls=%d micro-stalls=%d, want none", path.ID, sum.Stalls, sum.MicroStalls)
			}
			continue
		}
		stalls += sum.Stalls
		micro += sum.MicroStalls
	}
	if stalls == 0 || micro == 0 {
		t.Fatalf("degraded-LAN latency sketch recorded stalls=%d micro-stalls=%d, want both > 0", stalls, micro)
	}
}
