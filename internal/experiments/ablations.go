package experiments

import (
	"fmt"
	"time"

	"repro/internal/mib"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/snmp"
	"repro/internal/topo"
)

// Ablations: experiments for the design choices DESIGN.md §5 calls out,
// beyond the paper's own evaluation.

// A1 ablates the notification mechanism: the paper's traps are lost under
// load (E5); SNMPv2c InformRequests acknowledge and retry. This quantifies
// delivery and traffic cost for both across offered load.
func A1(quick bool) *report.Table {
	t := &report.Table{
		ID:    "A1",
		Title: "Notification delivery across load: trap (fire-and-forget) vs inform (ack + retry)",
		Paper: "extension of §5.2.4: traps were lost under very high load; informs are the acknowledged alternative",
		Columns: []string{"offered load", "trap delivery", "inform delivery",
			"inform wire pkts / event"},
	}
	loads := []float64{0.5, 1.2, 1.6}
	if quick {
		loads = []float64{0.5, 1.6}
	}
	window := pick(quick, 5*time.Second, 15*time.Second)
	events := 100

	for _, frac := range loads {
		k := newKernel()
		h := topo.BuildHiPerD(k, 1)
		// Notifications from w-fddi-1 (FDDI) to mgmt (Ethernet): cross r2,
		// which the load saturates — the E5 mechanism.
		src := h.Net.Node("w-fddi-1")
		sink := snmp.StartTrapSink(h.Mgmt, 0, 512, 0)
		agent := snmp.NewAgent(mib.NewTree(), "public")
		agent.AddTrapDestSim(src, "mgmt", 0)
		notifier := snmp.NewNotifier(src, "mgmt", 0, "public")
		notifier.Retries = 6
		notifier.Timeout = 300 * time.Millisecond

		crossLoad(h, frac)

		trapsSent, informsOK := 0, 0
		informerDone := false
		gap := window / time.Duration(events+1)
		trapGen := k.Every(gap, func() {
			if trapsSent < events {
				agent.SendTrap(mib.Enterprise, nil, snmp.TrapEnterpriseSpecific, trapsSent, nil)
				trapsSent++
			}
		})
		src.Spawn("informer", func(p *sim.Proc) {
			for i := 0; i < events; i++ {
				if notifier.Inform(p, snmp.EventBind(i)) == nil {
					informsOK++
				}
				p.Sleep(gap)
			}
			informerDone = true
		})
		// The informer blocks on retries under congestion; give it the
		// virtual time it needs (that time is part of inform's cost).
		deadline := window
		for !informerDone && deadline < window+10*time.Minute {
			deadline += 5 * time.Second
			k.RunUntil(deadline)
		}
		trapGen.Stop()
		trapFrac := float64(sink.Stats.Processed-sink.Stats.InformsAcked) / float64(trapsSent)
		informFrac := float64(informsOK) / float64(events)
		pktsPerEvent := float64(2*notifier.Stats.Acked+notifier.Stats.Sent-notifier.Stats.Acked) / float64(events)
		t.AddRow(report.Pct(frac), report.Pct(trapFrac), report.Pct(informFrac),
			report.Num(fmt.Sprintf("%.1f", pktsPerEvent), pktsPerEvent, ""))
		k.Close()
	}
	t.AddNote("a trap costs exactly 1 packet; an inform costs attempts + acks but survives congestion")
	return t
}

// A2 ablates the test sequencer's concurrency (DESIGN.md §5): serial (the
// paper's choice), bounded, and fully parallel, measuring the
// intrusiveness/senescence frontier on the 27-path pool.
func A2(quick bool) *report.Table {
	t := &report.Table{
		ID:    "A2",
		Title: "Sequencer concurrency ablation on the 27-path pool",
		Paper: "extension of §5.1.2.1: the paper built serial (k=1) and implied parallel (k=27); the frontier between them",
		Columns: []string{"concurrency k", "peak FDDI load", "peak Eth load",
			"sweep time", "per-path spacing"},
	}
	concs := []int{1, 3, 9, 27}
	if quick {
		concs = []int{1, 9}
	}
	cfg := nttcp.Config{MsgLen: 2048, InterSend: 10 * time.Millisecond, Count: 8, Timeout: time.Second}
	horizon := pick(quick, 15*time.Second, 30*time.Second)
	for _, conc := range concs {
		r := hifiSweep(cfg, conc, horizon)
		t.AddRow(conc, report.Bps(r.peakFDDI), report.Bps(r.peakEth), report.Dur(r.m.SweepTime), report.Dur(r.spacing))
	}
	t.AddNote("k=27 saturates the shared Ethernet (loss, retries) — more concurrency stops buying freshness")
	return t
}

// A3 ablates MIB retrieval strategy: GetNext walks vs GetBulk, the
// mechanism that determines manager-side polling cost at scale.
func A3(quick bool) *report.Table {
	t := &report.Table{
		ID:      "A3",
		Title:   "Retrieving the interfaces table: GetNext walk vs GetBulk",
		Paper:   "extension of §5.2.4's polling-intrusiveness warning: the v2c bulk retrieval option",
		Columns: []string{"method", "objects", "request pkts", "bytes on wire", "elapsed"},
	}
	_ = quick
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	// The router r2's view has several interfaces; a host view has one.
	view := mib.NewNodeView(h.R2)
	agent := snmp.NewAgent(view.Tree, "public")
	agent.ServeSim(h.R2, 0)

	type rowData struct {
		name    string
		objects int
		reqs    uint64
		bytes   uint64
		elapsed time.Duration
	}
	var rows []rowData
	h.Mgmt.Spawn("walker", func(p *sim.Proc) {
		for _, bulk := range []bool{false, true} {
			client := snmp.NewClient(h.Mgmt, "public")
			start := p.Now()
			var binds []snmp.VarBind
			var err error
			if bulk {
				binds, err = client.BulkWalk(p, "r2", mib.Interfaces, 16)
			} else {
				binds, err = client.Walk(p, "r2", mib.Interfaces)
			}
			if err != nil {
				continue
			}
			name := "getnext walk"
			if bulk {
				name = "getbulk (maxRep 16)"
			}
			rows = append(rows, rowData{name, len(binds),
				client.Stats.Requests, client.Stats.BytesSent + client.Stats.BytesRecv,
				p.Now() - start})
		}
	})
	k.RunUntil(60 * time.Second)
	for _, r := range rows {
		t.AddRow(r.name, r.objects, report.Count(r.reqs), report.Count(r.bytes), report.Dur(r.elapsed))
	}
	t.AddNote("bulk retrieval cuts request count roughly by maxRepetitions — the lever for polling many elements")
	return t
}
