// Passive monitoring: watch a busy shared LAN without injecting a single
// byte — the RMON probe's host/matrix groups answer "who talks to whom and
// how much", and the RTFM-style flow meter turns the same tap into per-pair
// throughput for the COTS monitor.
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/flowmeter"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/rmon"
	"repro/internal/rtds"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)

	// Real application traffic on the Ethernet: RTDS to c5 and c6, plus
	// unrelated chatter between workstations.
	radar := rtds.NewRadar(k, 7, 30, 100*time.Millisecond)
	rtds.StartServer(h.Servers[0], radar, []netsim.Addr{"c5", "c6"})
	rtds.StartClient(h.Clients[4])
	rtds.StartClient(h.Clients[5])
	netsim.NewSink(h.Net.Node("w-eth-2"), 9)
	(&netsim.CBRSource{Src: h.Net.Node("w-eth-1"), Dst: "w-eth-2", DstPort: 9,
		Size: 600, Interval: 5 * time.Millisecond}).Run()

	// Passive instrumentation on the probe host: RMON groups + flow meter.
	probe := rmon.NewProbe(h.Probe, h.Eth)
	hosts := probe.EnableHosts()
	matrix := probe.EnableMatrix()
	meter := flowmeter.New(k)
	meter.Attach(h.Eth)

	// A COTS monitor using the flow meter as its throughput sensor.
	mon := cots.New(h.Mgmt, "public", 2*time.Second)
	mon.UseFlowMeter(meter)
	paths := []core.Path{
		core.NewPath(h.ServerRefs()[0], h.ClientRefs()[4]),
		core.NewPath(h.ServerRefs()[0], h.ClientRefs()[5]),
	}
	mon.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	mon.Start()

	k.RunUntil(20 * time.Second)

	fmt.Println("top talkers on eth-lan (RMON host group):")
	for _, hst := range hosts.TopTalkers(3) {
		fmt.Printf("  %-8s out %8s  in %8s\n", hst.Addr,
			report.Count(hst.OutOctets), report.Count(hst.InOctets))
	}
	fmt.Println("\nconversations (RMON matrix group):")
	for _, c := range matrix.Conversations() {
		fmt.Printf("  %-8s -> %-8s %6d pkts  %10s octets\n",
			c.Src, c.Dst, c.Pkts, report.Count(c.Octets))
	}
	fmt.Println("\nper-path throughput from the flow meter (no probe traffic at all):")
	for _, p := range paths {
		if m, ok := mon.Query(p.ID, metrics.Throughput); ok && m.OK() {
			fmt.Printf("  %-28s %s [%s]\n", p.ID, report.Bps(m.Value), m.Quality)
		}
	}
	// The throughput sensor itself injected nothing; the only monitor
	// traffic left is the liveness polling (mgmt's SNMP gets).
	snmpBytes := mon.Client.Stats.BytesSent + mon.Client.Stats.BytesRecv
	fmt.Printf("\nframes on the wire: %s (%s octets); monitoring traffic: %s octets of liveness polls, 0 for throughput\n",
		report.Count(probe.Stats.Pkts), report.Count(probe.Stats.Octets), report.Count(snmpBytes))
}
