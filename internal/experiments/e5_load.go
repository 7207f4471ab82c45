package experiments

import (
	"fmt"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/rmon"
	"repro/internal/sim"
	"repro/internal/snmp"
	"repro/internal/topo"
)

// ethWire is the shared Ethernet's capacity in bits/s.
const ethWire = 10_000_000.0

// crossLoad floods the Ethernet workstations from the FDDI workstations
// across r2 at frac of the Ethernet's capacity: four jittered CBR sources
// of 1200 B datagrams, so traffic crossing the same router competes for its
// finite egress queue.
func crossLoad(h *topo.HiPerD, frac float64) {
	payload := 1200
	msgsPerSec := frac * ethWire / float64((payload+netsim.HeaderOverhead+38)*8)
	interval := time.Duration(float64(time.Second) / msgsPerSec)
	for i := 1; i <= 4; i++ {
		netsim.NewSink(h.Net.Node(netsim.Addr(fmt.Sprintf("w-eth-%d", i))), 9)
		(&netsim.CBRSource{
			Src: h.Net.Node(netsim.Addr(fmt.Sprintf("w-fddi-%d", i+1))),
			Dst: netsim.Addr(fmt.Sprintf("w-eth-%d", i)), DstPort: 9,
			Size: payload, Interval: interval * 4, Jitter: 0.2, Seed: int64(i),
		}).Run()
	}
}

// E5 reproduces §5.2.4's load findings: "the SolCom RMON probe was capable
// of collecting RMON metrics during heavy load conditions on a shared
// Ethernet LAN ... During very high load test situations, SNMP requests and
// responses, including traps, were lost. This was likely due to the SNMP
// being transported over the unreliable User Datagram Protocol."
//
// The load is injected across the r2 router onto the shared Ethernet, so
// SNMP traffic crossing the same router competes for its finite egress
// queue — the loss mechanism real networks exhibit.
func E5(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E5",
		Title: "Passive RMON collection vs request/response SNMP under Ethernet load",
		Paper: "probe keeps collecting under heavy load; SNMP requests/responses/traps lost under very high load (UDP)",
		Columns: []string{"offered load", "wire util", "probe capture", "SNMP poll success",
			"trap delivery"},
	}
	loads := []float64{0.10, 0.50, 0.80, 0.95, 1.20, 1.60}
	if quick {
		loads = []float64{0.10, 0.95, 1.60}
	}
	window := pick(quick, 5*time.Second, 15*time.Second)

	for _, frac := range loads {
		k := newKernel()
		h := topo.BuildHiPerD(k, 1)

		// Passive probe on the Ethernet.
		probe := rmon.NewProbe(h.Probe, h.Eth)

		// Agent on s1 (FDDI side): polls from mgmt (Ethernet side) cross r2.
		agentView := mib.NewNodeView(h.Servers[0])
		agent := snmp.NewAgent(agentView.Tree, "public")
		agent.ServeSim(h.Servers[0], 0)
		client := snmp.NewClient(h.Mgmt, "public")
		client.Timeout = 300 * time.Millisecond
		client.Retries = 0

		// Trap source on w-fddi-1, station on mgmt: traps cross r2 too.
		trapAgent := snmp.NewAgent(mib.NewTree(), "public")
		trapAgent.AddTrapDestSim(h.Net.Node("w-fddi-1"), "mgmt", 0)
		sink := snmp.StartTrapSink(h.Mgmt, 0, 512, 0)

		crossLoad(h, frac)

		polls, pollOK := 0, 0
		h.Mgmt.Spawn("poller", func(p *sim.Proc) {
			for {
				_, err := client.Get(p, "s1", mib.SysUpTime)
				polls++
				if err == nil {
					pollOK++
				}
				p.Sleep(100 * time.Millisecond)
			}
		})
		trapsSent := 0
		trapGen := h.Net.K.Every(50*time.Millisecond, func() {
			trapAgent.SendTrap(mib.Enterprise, nil, snmp.TrapEnterpriseSpecific, trapsSent, nil)
			trapsSent++
		})

		eth0 := h.Eth.Stats()
		k.RunUntil(window)
		trapGen.Stop()
		ethStats := h.Eth.Stats()
		util := float64(ethStats.Octets-eth0.Octets) * 8 / window.Seconds() / ethWire

		captureFrac := 1.0
		if ethStats.Frames > 0 {
			captureFrac = float64(probe.Stats.Pkts) / float64(ethStats.Frames)
		}
		pollFrac := 0.0
		if polls > 0 {
			pollFrac = float64(pollOK) / float64(polls)
		}
		trapFrac := 0.0
		if trapsSent > 0 {
			trapFrac = float64(sink.Stats.Processed) / float64(trapsSent)
		}
		t.AddRow(report.Pct(frac), report.Pct(util), report.Pct(captureFrac),
			report.Pct(pollFrac), report.Pct(trapFrac))
		k.Close()
	}
	t.AddNote("offered load beyond 100%% overflows the router egress queue; SNMP responses and traps riding it are tail-dropped")
	t.AddNote("the probe is passive: it counts every frame that makes it onto the wire, at any load")
	return t
}
