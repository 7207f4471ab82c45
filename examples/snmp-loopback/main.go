// SNMP loopback: the COTS management substrate over real UDP sockets on
// 127.0.0.1 — an agent serving a MIB, a manager walking it, a Set, and a
// threshold trap, all with genuine BER on the wire (§5.2's building
// blocks).
package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/mib"
	"repro/internal/snmp"
)

func main() {
	// Agent with a small MIB: system group plus a live counter.
	start := time.Now()
	tree := mib.NewTree()
	tree.RegisterConst(mib.SysDescr, mib.Str("loopback demo agent"))
	tree.RegisterScalar(mib.SysUpTime, func() mib.Value {
		return mib.Ticks(uint64(time.Since(start).Milliseconds() / 10))
	})
	tree.RegisterConst(mib.MustOID("1.3.6.1.2.1.1.5.0"), mib.Str("demo-host"))
	hits := uint64(0)
	tree.RegisterScalar(mib.Enterprise.Append(1, 0), func() mib.Value {
		hits++
		return mib.Counter(hits)
	})
	threshold := int64(3)
	tree.RegisterWritableScalar(mib.Enterprise.Append(2, 0),
		func() mib.Value { return mib.Int(threshold) },
		func(v mib.Value) error { threshold = v.Int; return nil })

	agent := snmp.NewAgent(tree, "public")
	agentConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	must(err)
	// The serve loop runs until the socket closes at process exit.
	go agent.ServeUDP(agentConn) //lint:allow droperr serve loop ends with the socket
	addr := agentConn.LocalAddr().String()
	fmt.Println("agent on", addr)

	// Trap listener (the management station).
	trapConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	must(err)
	trapGot := make(chan *snmp.Message, 1)
	go snmp.ListenTraps(trapConn, func(m *snmp.Message, _ *net.UDPAddr) { trapGot <- m }) //lint:allow droperr listener ends with the socket
	// The agent's trap destination: a UDP socket toward the station.
	trapOut, err := net.DialUDP("udp", nil, trapConn.LocalAddr().(*net.UDPAddr))
	must(err)
	agent.AddTrapDestFunc(func(b []byte) {
		_, err := trapOut.Write(b)
		must(err)
	})

	// Manager: walk the whole MIB.
	c := snmp.NewRealClient("public")
	binds, err := c.Walk(addr, mib.MustOID("1.3.6.1"))
	must(err)
	fmt.Println("\nwalk of the agent MIB:")
	for _, vb := range binds {
		fmt.Printf("  %s = %s: %s\n", vb.OID, vb.Value.Kind, vb.Value)
	}

	// Set the threshold knob, then poll the counter until it crosses and
	// the "probe" fires a trap — a hand-rolled RMON-style alarm.
	must(c.Set(addr, snmp.VarBind{OID: mib.Enterprise.Append(2, 0), Value: mib.Int(2)}))
	fmt.Println("\nthreshold set to 2; polling the counter...")
	for i := 0; i < 5; i++ {
		got, err := c.Get(addr, mib.Enterprise.Append(1, 0))
		must(err)
		v := int64(got[0].Value.Uint)
		fmt.Printf("  poll %d: counter = %d\n", i+1, v)
		if v >= 2 {
			agent.SendTrap(mib.Enterprise, []byte{127, 0, 0, 1}, snmp.TrapEnterpriseSpecific, 1,
				[]snmp.VarBind{{OID: mib.Enterprise.Append(1, 0), Value: mib.Counter(uint64(v))}})
			break
		}
	}
	select {
	case m := <-trapGot:
		fmt.Printf("\ntrap received: enterprise=%s specific=%d binds=%d\n",
			m.PDU.Enterprise, m.PDU.SpecificTrap, len(m.PDU.VarBinds))
	case <-time.After(2 * time.Second):
		fmt.Println("no trap received")
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
