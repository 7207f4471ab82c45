package experiments

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/mib"
	"repro/internal/report"
	"repro/internal/rstream"
	"repro/internal/sim"
	"repro/internal/snmp"
	"repro/internal/topo"
)

// E9 reproduces §5.2.4's MIB-coverage observation: "each TCP connection has
// twenty two separate state variables, SNMP's standard MIBs support the
// exchange of only five of these items (see page 111 of [6])." A live
// stream connection is established on an agent host and its tcpConnTable
// is walked over SNMP; the instrumented sensor reads the full state struct.
func E9(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E9",
		Title: "TCP connection state visible to each sensor type",
		Paper: "22 state variables per TCP connection; standard MIBs exchange only 5",
		Columns: []string{"sensor", "state vars visible", "fraction",
			"example objects"},
	}
	_ = quick
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)

	// Live connection: c1 dials a listener on s1.
	l := rstream.Listen(h.Servers[0], 7000)
	h.Servers[0].Spawn("acceptor", func(p *sim.Proc) {
		if c, ok := l.Accept(p, 10*time.Second); ok {
			for {
				if _, ok := c.Recv(p, 10*time.Second); !ok {
					return
				}
			}
		}
	})
	var dialed *rstream.Conn
	h.Clients[0].Spawn("dialer", func(p *sim.Proc) {
		c, err := rstream.Dial(p, h.Clients[0], "s1", 7000, 5*time.Second)
		if err != nil {
			return
		}
		dialed = c
		c.Send(p, 64<<10)
		c.Flush(p, 30*time.Second)
	})

	// Agent on s1 exposing the listener in tcpConnTable.
	view := mib.NewNodeView(h.Servers[0])
	view.AddListener(l)
	agent := snmp.NewAgent(view.Tree, "public")
	agent.ServeSim(h.Servers[0], 0)
	client := snmp.NewClient(h.Mgmt, "public")

	var walked []snmp.VarBind
	var walkErr error
	h.Mgmt.Spawn("walker", func(p *sim.Proc) {
		p.Sleep(5 * time.Second) // connection established and moving data
		walked, walkErr = client.Walk(p, "s1", mib.TCPConn)
	})
	k.RunUntil(60 * time.Second)
	if walkErr != nil {
		t.AddNote("WARNING: SNMP walk failed: %v", walkErr)
	}

	// Columns seen over SNMP (per connection row).
	colsSeen := map[uint32]bool{}
	for _, vb := range walked {
		if len(vb.OID) > len(mib.TCPConn) {
			colsSeen[vb.OID[len(mib.TCPConn)]] = true
		}
	}
	t.AddRow("standard MIB tcpConnTable (SNMP walk)", len(colsSeen),
		fmt.Sprintf("%d/%d", len(colsSeen), rstream.NumStateVars),
		"state, localAddr, localPort, remAddr, remPort")
	// The instrumented sensor reads the dialer's whole state struct, which
	// must show the 64 KiB sent and a measured round trip.
	instrumented := 0
	if dialed != nil {
		v := dialed.Vars()
		instrumented = reflect.TypeOf(v).NumField()
		if v.BytesOut != 64<<10 || v.SRTT == 0 {
			t.AddNote("WARNING: dialer state shows %d bytes out, SRTT %v; want %d and a sample", v.BytesOut, v.SRTT, 64<<10)
		}
	}
	t.AddRow("instrumented endpoint (direct)", instrumented,
		fmt.Sprintf("%d/%d", instrumented, rstream.NumStateVars),
		"all of StateVars: sndUna, cwnd, srtt, rto, retransSegs, ...")
	if len(colsSeen) != rstream.NumMIBVars {
		t.AddNote("WARNING: walk saw %d columns, expected %d", len(colsSeen), rstream.NumMIBVars)
	}
	t.AddNote("the paper's 5/22 ratio: %d/%d = %.0f%% of connection state reaches a standard-MIB monitor",
		rstream.NumMIBVars, rstream.NumStateVars,
		100*float64(rstream.NumMIBVars)/float64(rstream.NumStateVars))
	return t
}
