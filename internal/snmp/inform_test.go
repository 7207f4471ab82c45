package snmp

import (
	"testing"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func informFixture(t *testing.T, lossProb float64) (*sim.Kernel, *Notifier, *TrapSink) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 61)
	station := nw.NewHost("station")
	element := nw.NewHost("element")
	cfg := netsim.Ethernet10()
	cfg.LossProb = lossProb
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(station)
	seg.Attach(element)
	sink := StartTrapSink(station, 0, 64, time.Millisecond)
	n := NewNotifier(element, "station", 0, "public")
	return k, n, sink
}

func TestInformAcknowledged(t *testing.T) {
	k, n, sink := informFixture(t, 0)
	var err error
	n.node.Spawn("tester", func(p *sim.Proc) {
		err = n.Inform(p, EventBind(7))
	})
	k.RunUntil(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n.Stats.Acked != 1 || n.Stats.Sent != 1 {
		t.Fatalf("stats = %+v", n.Stats)
	}
	if sink.Stats.Processed != 1 || sink.Stats.InformsAcked != 1 {
		t.Fatalf("sink = %+v", sink.Stats)
	}
}

// TestTrapSinkRunsNoProc: the sink's receiver and processor are kernel
// events; a trap and an inform sent from a consumer socket are processed,
// and the inform acknowledged, with no proc switched into.
func TestTrapSinkRunsNoProc(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 61)
	station, element := nw.NewHost("station"), nw.NewHost("element")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(station)
	seg.Attach(element)
	sink := StartTrapSink(station, 0, 64, time.Millisecond)
	var acks []*Message
	peer := element.OpenUDP(0)
	peer.Consume(func(pkt *netsim.Packet) {
		if m, err := Decode(pkt.Payload); err == nil {
			acks = append(acks, m)
		}
	})
	for _, pdu := range []PDU{
		{Type: TrapV2, RequestID: 8, VarBinds: EventBind(7)},
		{Type: InformRequest, RequestID: 9, VarBinds: EventBind(7)},
	} {
		b := (&Message{Version: V2c, Community: "public", PDU: pdu}).Encode()
		peer.SendCopy("station", TrapPort, b, len(b))
	}
	k.Run()
	if sink.Stats.Processed != 2 || sink.Stats.InformsAcked != 1 {
		t.Fatalf("sink = %+v, want 2 processed and 1 inform acked", sink.Stats)
	}
	if len(acks) != 1 || acks[0].PDU.Type != GetResponse || acks[0].PDU.RequestID != 9 {
		t.Fatalf("acks %+v, want one response to inform 9", acks)
	}
	if n := k.ProcSwitches(); n != 0 {
		t.Errorf("the sink switched into a proc %d times, want 0", n)
	}
}

func TestInformRetriesThroughLoss(t *testing.T) {
	k, n, sink := informFixture(t, 0.4)
	// Per-attempt success ≈ 0.6² = 0.36; nine attempts make per-inform
	// failure ≈ 0.64⁹ ≈ 2%.
	n.Retries = 8
	acked := 0
	n.node.Spawn("tester", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if n.Inform(p, EventBind(i)) == nil {
				acked++
			}
		}
	})
	k.RunUntil(300 * time.Second)
	// With 4 retries at 40% loss, nearly everything gets through; compare
	// a plain trap's ~60% delivery.
	if acked < 18 {
		t.Fatalf("only %d/20 informs acked through 40%% loss", acked)
	}
	if n.Stats.Sent <= 20 {
		t.Fatal("no retries recorded on a lossy wire")
	}
	_ = sink
}

func TestInformBackpressureOnFullStation(t *testing.T) {
	// Tiny station queue, slow processing: informs must fail (not ack)
	// rather than silently vanish.
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 62)
	station := nw.NewHost("station")
	element := nw.NewHost("element")
	seg := nw.NewSegment("lan", netsim.Ethernet100())
	seg.Attach(station)
	seg.Attach(element)
	sink := StartTrapSink(station, 0, 2, 50*time.Millisecond)
	n := NewNotifier(element, "station", 0, "public")
	n.Retries = 0
	n.Timeout = 100 * time.Millisecond
	failed := 0
	element.Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			if n.Inform(p, EventBind(i)) != nil {
				failed++
			}
		}
	})
	k.RunUntil(60 * time.Second)
	if failed == 0 {
		t.Fatal("overloaded station acked everything")
	}
	// Everything acked was actually processed (no silent loss after ack).
	if sink.Stats.InformsAcked < sink.Stats.Processed {
		t.Fatalf("acked %d < processed %d", sink.Stats.InformsAcked, sink.Stats.Processed)
	}
}

func TestEventBind(t *testing.T) {
	binds := EventBind(5, VarBind{OID: mib.SysUpTime, Value: mib.Ticks(1)})
	if len(binds) != 2 || binds[0].Value.Int != 5 {
		t.Fatalf("binds = %+v", binds)
	}
}

func TestTrapV2Delivery(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 63)
	station := nw.NewHost("station")
	element := nw.NewHost("element")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(station)
	seg.Attach(element)
	sink := StartTrapSink(station, 0, 16, 0)
	var got *Message
	sink.OnTrap = func(m *Message, _ netsim.Addr) { got = m }
	agent := NewAgent(mib.NewTree(), "public")
	agent.AddTrapDestSim(element, "station", 0)
	trapOID := mib.Enterprise.Append(0, 5)
	k.After(0, func() {
		agent.SendTrapV2(trapOID, []VarBind{
			{OID: mib.Enterprise.Append(9, 0), Value: mib.Counter(7)},
		})
	})
	k.RunUntil(time.Second)
	if got == nil || got.PDU.Type != TrapV2 {
		t.Fatalf("trap = %+v", got)
	}
	// v2 identity rides the var-bind list: sysUpTime, snmpTrapOID, payload.
	if len(got.PDU.VarBinds) != 3 {
		t.Fatalf("binds = %+v", got.PDU.VarBinds)
	}
	if got.PDU.VarBinds[1].Value.OID.Cmp(trapOID) != 0 {
		t.Fatalf("snmpTrapOID = %v", got.PDU.VarBinds[1].Value.OID)
	}
	if got.PDU.VarBinds[2].Value.Uint != 7 {
		t.Fatalf("payload = %+v", got.PDU.VarBinds[2])
	}
}
