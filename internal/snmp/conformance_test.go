package snmp

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// The manager engine is written once and runs on two transports. These
// cases go through both: a kernel with two hosts, and 127.0.0.1 sockets. The
// far end is a responder function — request datagram in, reply datagrams
// out — so a misbehaving agent is staged identically on either side.

type responder func(req []byte) [][]byte

// transportUnderTest serves respond at the far end and runs fn with the
// engine and a conn pointed there. One of them runs fn on a simulator proc,
// so fn reports with t.Error, never t.Fatal.
type transportUnderTest func(t *testing.T, respond responder, fn func(*manager, conn))

const shortTimeout = 150 * time.Millisecond

func overSim(t *testing.T, respond responder, fn func(*manager, conn)) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 17)
	mgr := nw.NewHost("mgr")
	ag := nw.NewHost("agent1")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(mgr)
	seg.Attach(ag)
	sock := ag.OpenUDP(AgentPort)
	ag.Spawn("responder", func(p *sim.Proc) {
		for {
			pkt, ok := sock.Recv(p, -1)
			if !ok {
				return
			}
			for _, b := range respond(pkt.Payload) {
				sock.SendTo(pkt.Src, pkt.SrcPort, b)
			}
		}
	})
	c := NewClient(mgr, "public")
	c.Timeout, c.Retries = shortTimeout, 0
	mgr.Spawn("tester", func(p *sim.Proc) { fn(&c.manager, c.to(p, "agent1")) })
	k.RunUntil(time.Minute)
}

// serveUDP answers on a loopback socket until the test ends.
func serveUDP(t *testing.T, respond responder) string {
	t.Helper()
	lc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	go func() {
		buf := make([]byte, 65536)
		for {
			n, from, err := lc.ReadFromUDP(buf)
			if err != nil {
				return
			}
			for _, b := range respond(buf[:n]) {
				lc.WriteToUDP(b, from)
			}
		}
	}()
	return lc.LocalAddr().String()
}

func overUDP(t *testing.T, respond responder, fn func(*manager, conn)) {
	c := NewRealClient("public")
	c.Timeout, c.Retries = shortTimeout, 0
	_, err := c.over(serveUDP(t, respond), func(u conn) ([]VarBind, error) {
		fn(&c.manager, u)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// honest answers as an agent over demoTree does.
func honest() responder {
	a := NewAgent(demoTree(), "public")
	return func(req []byte) [][]byte {
		if resp := a.Handle(req); resp != nil {
			return [][]byte{resp}
		}
		return nil
	}
}

// staleFirst precedes every honest answer with a copy carrying the
// previous RequestID: the late answer to an earlier retry.
func staleFirst() responder {
	next := honest()
	return func(req []byte) [][]byte {
		out := next(req)
		if len(out) == 1 {
			if m, err := Decode(out[0]); err == nil {
				m.PDU.RequestID--
				out = [][]byte{m.Encode(), out[0]}
			}
		}
		return out
	}
}

// stuck answers every request with sysDescr.0 — an agent whose GetNext
// does not advance — and falls silent after limit requests, so that a
// manager that never notices still terminates.
func stuck(limit int) responder {
	served := 0
	return func(req []byte) [][]byte {
		m, err := Decode(req)
		if served++; err != nil || served > limit {
			return nil
		}
		resp := &Message{Version: m.Version, Community: m.Community}
		resp.PDU = PDU{Type: GetResponse, RequestID: m.PDU.RequestID,
			VarBinds: []VarBind{{OID: mib.SysDescr, Value: mib.Str("again")}}}
		return [][]byte{resp.Encode()}
	}
}

func TestConformanceBothTransports(t *testing.T) {
	knob := mib.Enterprise.Append(1, 0)
	cases := []struct {
		name    string
		respond func() responder
		check   func(*testing.T, *manager, conn)
	}{
		{"get", honest, func(t *testing.T, m *manager, c conn) {
			binds, err := m.read(c, GetRequest, mib.SysDescr)
			if err != nil || len(binds) != 1 || string(binds[0].Value.Str) != "loopback agent" {
				t.Errorf("get: %+v, %v", binds, err)
			}
			if m.Stats.Requests != 1 || m.Stats.Responses != 1 || m.Stats.BytesSent == 0 || m.Stats.BytesRecv == 0 {
				t.Errorf("stats = %+v", m.Stats)
			}
		}},
		{"getnext", honest, func(t *testing.T, m *manager, c conn) {
			binds, err := m.read(c, GetNextRequest, mib.SysDescr)
			if err != nil || len(binds) != 1 || binds[0].OID.Cmp(mib.SysUpTime) != 0 {
				t.Errorf("getnext: %+v, %v", binds, err)
			}
		}},
		{"walk", honest, func(t *testing.T, m *manager, c conn) {
			binds, err := m.walk(c, mib.System)
			if err != nil || len(binds) != 2 {
				t.Errorf("walk: %d objects, %v", len(binds), err)
			}
		}},
		{"set", honest, func(t *testing.T, m *manager, c conn) {
			if _, err := m.exchange(c, SetRequest, []VarBind{{OID: knob, Value: mib.Int(7)}}); err != nil {
				t.Error(err)
				return
			}
			binds, err := m.read(c, GetRequest, knob)
			if err != nil || binds[0].Value.Int != 7 {
				t.Errorf("after set: %+v, %v", binds, err)
			}
			// A read-only object refuses, and the error names the bind.
			_, err = m.exchange(c, SetRequest, []VarBind{{OID: mib.SysDescr, Value: mib.Str("x")}})
			if err == nil || !strings.Contains(err.Error(), "set: error status 2 at index 1") {
				t.Errorf("set of read-only object: %v", err)
			}
		}},
		{"wrong community times out", honest, func(t *testing.T, m *manager, c conn) {
			m.Community = "wrong"
			if _, err := m.read(c, GetRequest, mib.SysDescr); !errors.Is(err, ErrTimeout) {
				t.Errorf("err = %v, want ErrTimeout", err)
			}
			if m.Stats.Timeouts != 1 || m.Stats.Responses != 0 {
				t.Errorf("stats = %+v", m.Stats)
			}
		}},
		{"stale response dropped and counted", staleFirst, func(t *testing.T, m *manager, c conn) {
			if _, err := m.read(c, GetRequest, mib.SysDescr); err != nil {
				t.Error(err)
				return
			}
			if m.Stats.StaleDrops != 1 || m.Stats.Responses != 1 {
				t.Errorf("stats = %+v, want 1 stale drop beside 1 response", m.Stats)
			}
		}},
		{"walk stops on ordering violation", func() responder { return stuck(50) }, func(t *testing.T, m *manager, c conn) {
			binds, err := m.walk(c, mib.System)
			if err == nil || !strings.Contains(err.Error(), "ordering violation") {
				t.Errorf("walk: %d objects, err = %v, want ordering violation", len(binds), err)
			}
			if len(binds) != 1 || m.Stats.Requests != 2 {
				t.Errorf("walk went on for %d objects / %d requests, want to stop at the second response", len(binds), m.Stats.Requests)
			}
		}},
	}
	for name, run := range map[string]transportUnderTest{"sim": overSim, "udp": overUDP} {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				ran := false
				run(t, tc.respond(), func(m *manager, c conn) {
					ran = true
					tc.check(t, m, c)
				})
				if !ran {
					t.Fatal("case did not run")
				}
			})
		}
	}
}

// TestRealWalkStopsOnOrderingViolation is the snmpget-walk face of the case
// above: before the manager engine was shared, RealClient.Walk had no
// ordering check and followed a stuck agent for as long as it answered (50
// objects and a timeout against this responder).
func TestRealWalkStopsOnOrderingViolation(t *testing.T) {
	c := NewRealClient("public")
	c.Timeout, c.Retries = shortTimeout, 0
	binds, err := c.Walk(serveUDP(t, stuck(50)), mib.System)
	if err == nil || !strings.Contains(err.Error(), "ordering violation") || len(binds) != 1 {
		t.Fatalf("walk: %d objects, err = %v, want ordering violation after 1", len(binds), err)
	}
}

// TestWalkResultsSurviveLaterRequests: a Get's binds live in storage the
// engine reuses, but what Walk and BulkWalk return are copies — unchanged
// after the engine has decoded other answers over the ones they came from.
func TestWalkResultsSurviveLaterRequests(t *testing.T) {
	walks := map[string]func(*manager, conn) ([]VarBind, error){
		"walk":     func(m *manager, c conn) ([]VarBind, error) { return m.walk(c, mib.MustOID("1.3.6.1")) },
		"bulkwalk": func(m *manager, c conn) ([]VarBind, error) { return m.bulkWalk(c, mib.MustOID("1.3.6.1"), 2) },
	}
	for name, run := range map[string]transportUnderTest{"sim": overSim, "udp": overUDP} {
		for kind, walk := range walks {
			t.Run(name+"/"+kind, func(t *testing.T) {
				run(t, honest(), func(m *manager, c conn) {
					binds, err := walk(m, c)
					if err != nil || len(binds) != 3 {
						t.Errorf("%s: %d objects, %v", kind, len(binds), err)
						return
					}
					var before []string
					for _, vb := range binds {
						before = append(before, vb.OID.String()+" = "+vb.Value.String())
					}
					// Longer names, another order, other values: whatever
					// these decode into must not be what binds points at.
					if _, err := m.read(c, GetRequest, mib.Enterprise.Append(1, 0), mib.SysUpTime, mib.SysDescr); err != nil {
						t.Error(err)
					}
					if _, err := walk(m, c); err != nil {
						t.Error(err)
					}
					if _, err := m.read(c, GetNextRequest, mib.MustOID("1.3")); err != nil {
						t.Error(err)
					}
					for i, vb := range binds {
						if now := vb.OID.String() + " = " + vb.Value.String(); now != before[i] {
							t.Errorf("%s result %d changed under later requests: %s, was %s", kind, i, now, before[i])
						}
					}
				})
			})
		}
	}
}
