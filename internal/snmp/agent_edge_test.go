package snmp

import (
	"testing"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// newTwoHostNet builds mgr and agent1 hosts on a LAN with no agent serving
// (for timeout paths).
func newTwoHostNet(k *sim.Kernel) *netsimNetwork {
	nw := netsim.New(k, 81)
	mgr := nw.NewHost("mgr")
	ag := nw.NewHost("agent1")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(mgr)
	seg.Attach(ag)
	return nw
}

// netsimNetwork aliases the concrete type for the helper's signature.
type netsimNetwork = netsim.Network

// direct-handle tests: exercise Agent.Handle without a network.

func handleMsg(t *testing.T, a *Agent, msg *Message) *Message {
	t.Helper()
	raw := a.Handle(msg.Encode())
	if raw == nil {
		return nil
	}
	resp, err := Decode(raw)
	if err != nil {
		t.Fatalf("agent produced undecodable response: %v", err)
	}
	return resp
}

func edgeAgent() *Agent {
	tr := mib.NewTree()
	tr.RegisterConst(mib.MustOID("1.1.0"), mib.Int(1))
	tr.RegisterConst(mib.MustOID("1.2.0"), mib.Int(2))
	tr.RegisterConst(mib.MustOID("1.3.0"), mib.Int(3))
	return NewAgent(tr, "public")
}

func TestAgentTooBig(t *testing.T) {
	a := edgeAgent()
	a.MaxVarBinds = 2
	var binds []VarBind
	for i := 0; i < 3; i++ {
		binds = append(binds, VarBind{OID: mib.MustOID("1.1.0"), Value: mib.Null()})
	}
	resp := handleMsg(t, a, &Message{Version: V2c, Community: "public",
		PDU: PDU{Type: GetRequest, RequestID: 1, VarBinds: binds}})
	if resp == nil || resp.PDU.ErrorStatus != ErrTooBig {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestAgentV1NoSuchName(t *testing.T) {
	a := edgeAgent()
	resp := handleMsg(t, a, &Message{Version: V1, Community: "public",
		PDU: PDU{Type: GetRequest, RequestID: 2, VarBinds: []VarBind{
			{OID: mib.MustOID("1.1.0"), Value: mib.Null()},
			{OID: mib.MustOID("9.9.9"), Value: mib.Null()},
		}}})
	if resp.PDU.ErrorStatus != ErrNoSuchName || resp.PDU.ErrorIndex != 2 {
		t.Fatalf("v1 error semantics: %+v", resp.PDU)
	}
}

func TestAgentV2NoSuchObjectPerBind(t *testing.T) {
	a := edgeAgent()
	resp := handleMsg(t, a, &Message{Version: V2c, Community: "public",
		PDU: PDU{Type: GetRequest, RequestID: 3, VarBinds: []VarBind{
			{OID: mib.MustOID("1.1.0"), Value: mib.Null()},
			{OID: mib.MustOID("9.9.9"), Value: mib.Null()},
		}}})
	if resp.PDU.ErrorStatus != ErrNoError {
		t.Fatalf("v2 should not error: %+v", resp.PDU)
	}
	if resp.PDU.VarBinds[0].Value.Int != 1 || resp.PDU.VarBinds[1].Value.Kind != mib.KindNoSuchObject {
		t.Fatalf("binds = %+v", resp.PDU.VarBinds)
	}
}

func TestAgentGetBulkNonRepeaters(t *testing.T) {
	a := edgeAgent()
	resp := handleMsg(t, a, &Message{Version: V2c, Community: "public",
		PDU: PDU{Type: GetBulkRequest, RequestID: 4,
			ErrorStatus: 1, // non-repeaters
			ErrorIndex:  5, // max-repetitions
			VarBinds: []VarBind{
				{OID: mib.MustOID("1"), Value: mib.Null()}, // non-repeater: one Next
				{OID: mib.MustOID("1"), Value: mib.Null()}, // repeater: walk
			}}})
	// 1 non-repeater + up to 5 repetitions (3 objects + endOfMib).
	if len(resp.PDU.VarBinds) < 4 {
		t.Fatalf("bulk binds = %+v", resp.PDU.VarBinds)
	}
	if resp.PDU.VarBinds[0].OID.String() != ".1.1.0" {
		t.Fatalf("non-repeater = %v", resp.PDU.VarBinds[0].OID)
	}
	sawEnd := false
	for _, vb := range resp.PDU.VarBinds[1:] {
		if vb.Value.Kind == mib.KindEndOfMIB {
			sawEnd = true
		}
	}
	if !sawEnd {
		t.Fatal("bulk walk did not reach endOfMibView")
	}
}

func TestAgentGetBulkRespectsMaxVarBinds(t *testing.T) {
	a := edgeAgent()
	a.MaxVarBinds = 2
	resp := handleMsg(t, a, &Message{Version: V2c, Community: "public",
		PDU: PDU{Type: GetBulkRequest, RequestID: 5,
			ErrorIndex: 100,
			VarBinds:   []VarBind{{OID: mib.MustOID("1"), Value: mib.Null()}}}})
	if len(resp.PDU.VarBinds) > 2 {
		t.Fatalf("bulk overflowed MaxVarBinds: %d binds", len(resp.PDU.VarBinds))
	}
}

func TestAgentIgnoresResponsesAndTraps(t *testing.T) {
	a := edgeAgent()
	if raw := a.Handle((&Message{Version: V2c, Community: "public",
		PDU: PDU{Type: GetResponse, RequestID: 9}}).Encode()); raw != nil {
		t.Fatal("agent answered a response PDU")
	}
	if raw := a.Handle((&Message{Version: V1, Community: "public",
		PDU: PDU{Type: TrapV1, Enterprise: mib.Enterprise}}).Encode()); raw != nil {
		t.Fatal("agent answered a trap")
	}
}

func TestAgentMalformedCounting(t *testing.T) {
	a := edgeAgent()
	a.Handle([]byte{0x30, 0x03, 0x02, 0x01})
	a.Handle(nil)
	if a.Stats.Malformed != 2 {
		t.Fatalf("malformed = %d", a.Stats.Malformed)
	}
}

func TestAgentV1GetNextNoSuchName(t *testing.T) {
	a := edgeAgent()
	resp := handleMsg(t, a, &Message{Version: V1, Community: "public",
		PDU: PDU{Type: GetNextRequest, RequestID: 10, VarBinds: []VarBind{
			{OID: mib.MustOID("9.9"), Value: mib.Null()}, // past the end
		}}})
	if resp.PDU.ErrorStatus != ErrNoSuchName {
		t.Fatalf("v1 getnext past end: %+v", resp.PDU)
	}
}

func TestAgentV2GetNextEndOfMib(t *testing.T) {
	a := edgeAgent()
	resp := handleMsg(t, a, &Message{Version: V2c, Community: "public",
		PDU: PDU{Type: GetNextRequest, RequestID: 11, VarBinds: []VarBind{
			{OID: mib.MustOID("9.9"), Value: mib.Null()},
		}}})
	if resp.PDU.ErrorStatus != ErrNoError || resp.PDU.VarBinds[0].Value.Kind != mib.KindEndOfMIB {
		t.Fatalf("v2 getnext past end: %+v", resp.PDU)
	}
}

func TestPDUTypeStrings(t *testing.T) {
	cases := map[PDUType]string{
		GetRequest: "get", GetNextRequest: "getnext", GetResponse: "response",
		SetRequest: "set", TrapV1: "trap", GetBulkRequest: "getbulk",
		InformRequest: "inform", TrapV2: "trapv2", PDUType(0x99): "pdu-0x99",
	}
	for typ, want := range cases {
		if typ.String() != want {
			t.Fatalf("%v.String() = %q, want %q", byte(typ), typ.String(), want)
		}
	}
}

func TestAddTrapDestFunc(t *testing.T) {
	a := edgeAgent()
	var got []byte
	a.AddTrapDestFunc(func(b []byte) { got = b })
	a.SendTrap(mib.Enterprise, nil, TrapColdStart, 0, nil)
	if got == nil {
		t.Fatal("custom trap destination not invoked")
	}
	if m, err := Decode(got); err != nil || m.PDU.Type != TrapV1 {
		t.Fatalf("trap bytes: %v", err)
	}
}

func TestInformAsync(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 82)
	station := nw.NewHost("station")
	element := nw.NewHost("element")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(station)
	seg.Attach(element)
	sink := StartTrapSink(station, 0, 16, 0)
	n := NewNotifier(element, "station", 0, "public")
	n.InformAsync(EventBind(1))
	n.InformAsync(EventBind(2))
	k.RunUntil(5 * time.Second)
	if n.Stats.Acked != 2 || sink.Stats.Processed != 2 {
		t.Fatalf("async informs: %+v / %+v", n.Stats, sink.Stats)
	}
}
