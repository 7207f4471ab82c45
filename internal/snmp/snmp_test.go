package snmp

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestMessageRoundTrip(t *testing.T) {
	msg := &Message{
		Version:   V2c,
		Community: "public",
		PDU: PDU{
			Type:      GetRequest,
			RequestID: 1234,
			VarBinds: []VarBind{
				{OID: mib.MustOID("1.3.6.1.2.1.1.1.0"), Value: mib.Null()},
				{OID: mib.MustOID("1.3.6.1.2.1.1.3.0"), Value: mib.Null()},
			},
		},
	}
	got, err := Decode(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != V2c || got.Community != "public" || got.PDU.Type != GetRequest ||
		got.PDU.RequestID != 1234 || len(got.PDU.VarBinds) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.PDU.VarBinds[1].OID.String() != ".1.3.6.1.2.1.1.3.0" {
		t.Fatalf("varbind OID: %s", got.PDU.VarBinds[1].OID)
	}
}

func TestTrapV1RoundTrip(t *testing.T) {
	msg := &Message{
		Version:   V1,
		Community: "public",
		PDU: PDU{
			Type:         TrapV1,
			Enterprise:   mib.MustOID("1.3.6.1.4.1.5307"),
			AgentAddr:    []byte{10, 1, 2, 3},
			GenericTrap:  TrapEnterpriseSpecific,
			SpecificTrap: 42,
			Timestamp:    99,
			VarBinds: []VarBind{
				{OID: mib.MustOID("1.3.6.1.4.1.5307.1.0"), Value: mib.Counter(7)},
			},
		},
	}
	got, err := Decode(msg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	p := got.PDU
	if p.Type != TrapV1 || p.GenericTrap != TrapEnterpriseSpecific || p.SpecificTrap != 42 ||
		p.Timestamp != 99 || p.Enterprise.String() != ".1.3.6.1.4.1.5307" {
		t.Fatalf("trap round trip: %+v", p)
	}
	if len(p.AgentAddr) != 4 || p.AgentAddr[0] != 10 {
		t.Fatalf("agent addr: %v", p.AgentAddr)
	}
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(reqID int32, community string, oidTail []uint32, intVal int64) bool {
		msg := &Message{
			Version:   V2c,
			Community: community,
			PDU: PDU{
				Type:      GetResponse,
				RequestID: reqID,
				VarBinds: []VarBind{
					{OID: mib.OID(append([]uint32{1, 3}, oidTail...)), Value: mib.Int(intVal)},
				},
			},
		}
		got, err := Decode(msg.Encode())
		if err != nil {
			return false
		}
		return got.PDU.RequestID == reqID && got.Community == community &&
			got.PDU.VarBinds[0].Value.Int == intVal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {0x30}, {0x02, 0x01, 0x00}, {0x30, 0x02, 0x02, 0x01}} {
		if _, err := Decode(b); err == nil {
			t.Fatalf("decoded garbage % x", b)
		}
	}
}

// agentFixture builds a manager host and agent host on one LAN, with a
// small MIB on the agent.
func agentFixture(t testing.TB) (*sim.Kernel, *netsim.Network, *Client, *Agent, *netsim.Node) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 21)
	mgr := nw.NewHost("mgr")
	ag := nw.NewHost("agent1")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(mgr)
	seg.Attach(ag)
	view := mib.NewNodeView(ag)
	agent := NewAgent(view.Tree, "public")
	agent.ServeSim(ag, 0)
	client := NewClient(mgr, "public")
	return k, nw, client, agent, ag
}

func TestGetOverSimNetwork(t *testing.T) {
	k, _, client, _, _ := agentFixture(t)
	var binds []VarBind
	var err error
	client.node.Spawn("tester", func(p *sim.Proc) {
		binds, err = client.Get(p, "agent1", mib.MustOID("1.3.6.1.2.1.1.5.0"))
	})
	k.RunUntil(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(binds) != 1 || string(binds[0].Value.Str) != "agent1" {
		t.Fatalf("binds = %+v", binds)
	}
}

func TestGetUnknownOIDv2ReturnsNoSuchObject(t *testing.T) {
	k, _, client, _, _ := agentFixture(t)
	var binds []VarBind
	var err error
	client.node.Spawn("tester", func(p *sim.Proc) {
		binds, err = client.Get(p, "agent1", mib.MustOID("1.3.9.9.9.0"))
	})
	k.RunUntil(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if binds[0].Value.Kind != mib.KindNoSuchObject {
		t.Fatalf("value = %+v", binds[0].Value)
	}
}

func TestWalkSystemGroup(t *testing.T) {
	k, _, client, _, _ := agentFixture(t)
	var binds []VarBind
	var err error
	client.node.Spawn("tester", func(p *sim.Proc) {
		binds, err = client.Walk(p, "agent1", mib.System)
	})
	k.RunUntil(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(binds) != 7 {
		t.Fatalf("system group walk returned %d objects, want 7", len(binds))
	}
}

func TestBulkWalkMatchesWalk(t *testing.T) {
	k, _, client, _, _ := agentFixture(t)
	var w1, w2 []VarBind
	client.node.Spawn("tester", func(p *sim.Proc) {
		w1, _ = client.Walk(p, "agent1", mib.Interfaces)
		w2, _ = client.BulkWalk(p, "agent1", mib.Interfaces, 8)
	})
	k.RunUntil(60 * time.Second)
	if len(w1) == 0 || len(w1) != len(w2) {
		t.Fatalf("walk %d objects vs bulkwalk %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i].OID.Cmp(w2[i].OID) != 0 {
			t.Fatalf("walk/bulkwalk diverge at %d: %s vs %s", i, w1[i].OID, w2[i].OID)
		}
	}
}

func TestCommunityAuth(t *testing.T) {
	k, _, _, agent, _ := agentFixture(t)
	nw := agent // silence unused in older go versions
	_ = nw
	// A client with the wrong community gets silence, then times out.
	k2, _, client, agent2, _ := agentFixture(t)
	_ = k
	client.Community = "wrong"
	client.Timeout = 100 * time.Millisecond
	client.Retries = 0
	var err error
	client.node.Spawn("tester", func(p *sim.Proc) {
		_, err = client.Get(p, "agent1", mib.SysUpTime)
	})
	k2.RunUntil(5 * time.Second)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if agent2.Stats.AuthFailures == 0 {
		t.Fatal("agent did not count auth failure")
	}
}

func TestSetReadOnly(t *testing.T) {
	k, _, client, _, _ := agentFixture(t)
	// The agent answers a SetRequest from the wire whoever sends it; the
	// client has no Set of its own, so the test speaks the PDU directly.
	var resp *Message
	var err error
	client.node.Spawn("tester", func(p *sim.Proc) {
		resp, err = client.request(client.to(p, "agent1"), PDU{Type: SetRequest,
			VarBinds: []VarBind{{OID: mib.SysDescr, Value: mib.Str("x")}}})
	})
	k.RunUntil(5 * time.Second)
	if err != nil {
		t.Fatalf("set request: %v", err)
	}
	if resp.PDU.ErrorStatus != ErrNoSuchName || resp.PDU.ErrorIndex != 1 {
		t.Fatalf("set of read-only object: status %d index %d, want noSuchName at 1",
			resp.PDU.ErrorStatus, resp.PDU.ErrorIndex)
	}
}

func TestRequestRetry(t *testing.T) {
	// Lossy LAN: the client should retry and usually succeed.
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 7)
	mgr := nw.NewHost("mgr")
	ag := nw.NewHost("agent1")
	cfg := netsim.Ethernet10()
	cfg.LossProb = 0.4
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(mgr)
	seg.Attach(ag)
	agent := NewAgent(mib.NewNodeView(ag).Tree, "public")
	agent.ServeSim(ag, 0)
	client := NewClient(mgr, "public")
	client.Timeout = 200 * time.Millisecond
	client.Retries = 8
	ok := 0
	client.node.Spawn("tester", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if _, err := client.Get(p, "agent1", mib.SysUpTime); err == nil {
				ok++
			}
		}
	})
	k.RunUntil(120 * time.Second)
	if ok < 18 {
		t.Fatalf("only %d/20 gets succeeded with retries on lossy LAN", ok)
	}
	if client.Stats.Retries == 0 {
		t.Fatal("no retries recorded on a 40% lossy LAN")
	}
}

func TestTrapDelivery(t *testing.T) {
	k, nw, _, agent, agNode := agentFixture(t)
	station := nw.NewHost("station")
	seg := agNode.Ifaces()[0].Medium().(*netsim.SharedSegment)
	seg.Attach(station)
	sink := StartTrapSink(station, 0, 100, time.Millisecond)
	var gotSpecific int
	sink.OnTrap = func(m *Message, from netsim.Addr) {
		gotSpecific = m.PDU.SpecificTrap
	}
	agent.AddTrapDestSim(agNode, "station", 0)
	k.After(time.Millisecond, func() {
		agent.SendTrap(mib.Enterprise, mib.PseudoIP(agNode.Name), TrapEnterpriseSpecific, 17, nil)
	})
	k.RunUntil(time.Second)
	if sink.Stats.Processed != 1 || gotSpecific != 17 {
		t.Fatalf("sink = %+v, specific = %d", sink.Stats, gotSpecific)
	}
}

func TestTrapSinkOverrun(t *testing.T) {
	// Fire a large burst of traps at a slow station: the bounded ingest
	// queue must drop some — the §5.2.4 SunNet Manager observation.
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 3)
	station := nw.NewHost("station")
	src := nw.NewHost("prober")
	seg := nw.NewSegment("lan", netsim.Ethernet100())
	seg.Attach(station)
	seg.Attach(src)
	sink := StartTrapSink(station, 0, 16, 5*time.Millisecond)
	agent := NewAgent(mib.NewTree(), "public")
	agent.AddTrapDestSim(src, "station", 0)
	k.After(0, func() {
		for i := 0; i < 500; i++ {
			agent.SendTrap(mib.Enterprise, nil, TrapEnterpriseSpecific, i, nil)
		}
	})
	k.RunUntil(30 * time.Second)
	egress := src.Ifaces()[0].Counters.OutDiscards
	total := sink.Stats.Processed + sink.Stats.Dropped + sink.SocketDrops() + egress
	if sink.Stats.Dropped+sink.SocketDrops()+egress == 0 {
		t.Fatalf("no overrun drops: %+v (socket %d, egress %d)", sink.Stats, sink.SocketDrops(), egress)
	}
	if total != 500 {
		t.Fatalf("trap accounting: %d processed + %d dropped + %d sock + %d egress = %d, want 500",
			sink.Stats.Processed, sink.Stats.Dropped, sink.SocketDrops(), egress, total)
	}
}

// TestTrapSinkDefaultCapAndTelemetry floods a sink built with queueCap 0:
// the queue must be bounded at DefaultTrapQueueCap (never unbounded), and
// the overflow accounting a monitor publishes (cots registers Stats and
// QueueLen as cots.trapsink.*) must add up.
func TestTrapSinkDefaultCapAndTelemetry(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 9)
	station := nw.NewHost("station")
	src := nw.NewHost("prober")
	seg := nw.NewSegment("lan", netsim.Ethernet100())
	seg.Attach(station)
	seg.Attach(src)
	sink := StartTrapSink(station, 0, 0, 5*time.Millisecond)
	agent := NewAgent(mib.NewTree(), "public")
	agent.AddTrapDestSim(src, "station", 0)
	send := 3 * DefaultTrapQueueCap
	k.Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < send; i++ {
			agent.SendTrap(mib.Enterprise, nil, TrapEnterpriseSpecific, i, nil)
			p.Sleep(100 * time.Microsecond)
		}
	})
	k.RunUntil(30 * time.Second)
	if sink.Stats.Dropped == 0 {
		t.Fatalf("no queue drops at default cap: %+v", sink.Stats)
	}
	if sink.Stats.Arrived > uint64(send) {
		t.Fatalf("arrived %d exceeds %d sent — queue not bounded at the default cap?",
			sink.Stats.Arrived, send)
	}
	// Every trap that left the socket was queued or dropped, and every
	// queued one is processed or still waiting.
	if got := sink.Stats.Arrived + sink.Stats.Dropped + sink.SocketDrops(); got != uint64(send) {
		t.Errorf("arrived %d + dropped %d + socket drops %d = %d, want the %d sent",
			sink.Stats.Arrived, sink.Stats.Dropped, sink.SocketDrops(), got, send)
	}
	if got := sink.Stats.Processed + uint64(sink.QueueLen()); got != sink.Stats.Arrived {
		t.Errorf("processed %d + waiting %d = %d, want the %d arrived",
			sink.Stats.Processed, sink.QueueLen(), got, sink.Stats.Arrived)
	}
}

// TestTrapSinkQueueDepthIsLive: QueueLen reads the queue itself, so a
// reader called from a kernel event mid-flood sees the backlog.
func TestTrapSinkQueueDepthIsLive(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 9)
	station := nw.NewHost("station")
	src := nw.NewHost("prober")
	seg := nw.NewSegment("lan", netsim.Ethernet100())
	seg.Attach(station)
	seg.Attach(src)
	sink := StartTrapSink(station, 0, 8, 50*time.Millisecond)
	agent := NewAgent(mib.NewTree(), "public")
	agent.AddTrapDestSim(src, "station", 0)
	k.At(time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			agent.SendTrap(mib.Enterprise, nil, TrapEnterpriseSpecific, i, nil)
		}
	})
	var mid int
	k.At(20*time.Millisecond, func() { mid = sink.QueueLen() })
	k.RunUntil(time.Second)
	if mid != 4 { // five arrived, the first is being processed
		t.Errorf("depth read mid-flood = %v, want 4", mid)
	}
	if end := sink.QueueLen(); end != 0 || sink.Stats.Processed != 5 {
		t.Errorf("depth after the drain = %v with %d processed, want 0 and 5", end, sink.Stats.Processed)
	}
}
