package snmp

import (
	"net"
	"testing"
	"time"

	"repro/internal/mib"
)

// demoTree builds a small static MIB for loopback tests.
func demoTree() *mib.Tree {
	tr := mib.NewTree()
	tr.RegisterConst(mib.SysDescr, mib.Str("loopback agent"))
	val := int64(0)
	tr.RegisterWritableScalar(mib.Enterprise.Append(1, 0),
		func() mib.Value { return mib.Int(val) },
		func(v mib.Value) error { val = v.Int; return nil })
	tr.RegisterScalar(mib.SysUpTime, func() mib.Value { return mib.Ticks(100) })
	return tr
}

func startRealAgent(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	agent := NewAgent(demoTree(), "public")
	go agent.ServeUDP(conn)
	return conn.LocalAddr().String()
}

func TestRealGetWalkSet(t *testing.T) {
	addr := startRealAgent(t)
	c := NewRealClient("public")

	binds, err := c.Get(addr, mib.SysDescr)
	if err != nil {
		t.Fatal(err)
	}
	if string(binds[0].Value.Str) != "loopback agent" {
		t.Fatalf("sysDescr = %q", binds[0].Value.Str)
	}

	walked, err := c.Walk(addr, mib.System)
	if err != nil || len(walked) != 2 {
		t.Fatalf("walk: %d objects, %v", len(walked), err)
	}

	if err := c.Set(addr, VarBind{OID: mib.Enterprise.Append(1, 0), Value: mib.Int(7)}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(addr, mib.Enterprise.Append(1, 0))
	if err != nil || got[0].Value.Int != 7 {
		t.Fatalf("after set: %+v %v", got, err)
	}
}

func TestRealWrongCommunityTimesOut(t *testing.T) {
	addr := startRealAgent(t)
	c := NewRealClient("wrong")
	c.Timeout = 200 * time.Millisecond
	c.Retries = 0
	if _, err := c.Get(addr, mib.SysDescr); err != ErrTimeout {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestRealTrapDelivery(t *testing.T) {
	lc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	got := make(chan *Message, 1)
	go ListenTraps(lc, func(m *Message, _ *net.UDPAddr) {
		select {
		case got <- m:
		default:
		}
	})
	out, err := net.DialUDP("udp", nil, lc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	agent := NewAgent(demoTree(), "public")
	agent.trapSend = append(agent.trapSend, func(b []byte) {
		if _, err := out.Write(b); err != nil {
			t.Error(err)
		}
	})
	agent.SendTrap(mib.Enterprise, []byte{127, 0, 0, 1}, TrapEnterpriseSpecific, 42, nil)
	select {
	case m := <-got:
		if m.PDU.Type != TrapV1 || m.PDU.SpecificTrap != 42 {
			t.Fatalf("trap = %+v", m.PDU)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("trap not received over loopback")
	}
}
