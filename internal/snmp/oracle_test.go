package snmp

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/asn1ber"
	"repro/internal/mib"
)

// The codec this package had before it encoded in one buffer and decoded
// into a scratch message: Encode built every TLV's content in a slice of
// its own, Decode allocated the message, each OID and the bind slice. They
// stay as the oracles the one implementation is held to — byte-identical
// encoding, equal decoding.

func oracleEncode(m *Message) []byte {
	var pdu []byte
	if m.PDU.Type == TrapV1 {
		pdu = asn1ber.AppendOID(pdu, m.PDU.Enterprise)
		addr := m.PDU.AgentAddr
		if len(addr) != 4 {
			addr = []byte{0, 0, 0, 0}
		}
		pdu = asn1ber.AppendString(pdu, asn1ber.TagIPAddress, addr)
		pdu = asn1ber.AppendInt(pdu, asn1ber.TagInteger, int64(m.PDU.GenericTrap))
		pdu = asn1ber.AppendInt(pdu, asn1ber.TagInteger, int64(m.PDU.SpecificTrap))
		pdu = asn1ber.AppendUint(pdu, asn1ber.TagTimeTicks, uint64(m.PDU.Timestamp))
	} else {
		pdu = asn1ber.AppendInt(pdu, asn1ber.TagInteger, int64(m.PDU.RequestID))
		pdu = asn1ber.AppendInt(pdu, asn1ber.TagInteger, int64(m.PDU.ErrorStatus))
		pdu = asn1ber.AppendInt(pdu, asn1ber.TagInteger, int64(m.PDU.ErrorIndex))
	}
	var binds []byte
	for _, vb := range m.PDU.VarBinds {
		var one []byte
		one = asn1ber.AppendOID(one, vb.OID)
		one = vb.Value.Encode(one)
		binds = asn1ber.AppendTLV(binds, asn1ber.TagSequence, one)
	}
	pdu = asn1ber.AppendTLV(pdu, asn1ber.TagSequence, binds)

	var body []byte
	body = asn1ber.AppendInt(body, asn1ber.TagInteger, int64(m.Version))
	body = asn1ber.AppendString(body, asn1ber.TagOctetString, []byte(m.Community))
	body = asn1ber.AppendTLV(body, byte(m.PDU.Type), pdu)
	return asn1ber.AppendTLV(nil, asn1ber.TagSequence, body)
}

func oracleDecode(b []byte) (*Message, error) {
	outer, err := asn1ber.NewReader(b).ReadExpect(asn1ber.TagSequence)
	if err != nil {
		return nil, err
	}
	r := asn1ber.NewReader(outer)
	_, ver, err := r.ReadInt()
	if err != nil {
		return nil, err
	}
	community, err := r.ReadExpect(asn1ber.TagOctetString)
	if err != nil {
		return nil, err
	}
	pduTag, pduBytes, err := r.ReadTLV()
	if err != nil {
		return nil, err
	}
	m := &Message{Version: Version(ver), Community: string(community)}
	m.PDU.Type = PDUType(pduTag)
	pr := asn1ber.NewReader(pduBytes)
	if m.PDU.Type == TrapV1 {
		entBytes, err := pr.ReadExpect(asn1ber.TagOID)
		if err != nil {
			return nil, err
		}
		arcs, err := asn1ber.ParseOID(entBytes)
		if err != nil {
			return nil, err
		}
		m.PDU.Enterprise = mib.OID(arcs)
		addr, err := pr.ReadExpect(asn1ber.TagIPAddress)
		if err != nil {
			return nil, err
		}
		m.PDU.AgentAddr = append([]byte(nil), addr...)
		_, g, err := pr.ReadInt()
		if err != nil {
			return nil, err
		}
		_, s, err := pr.ReadInt()
		if err != nil {
			return nil, err
		}
		ts, err := pr.ReadExpect(asn1ber.TagTimeTicks)
		if err != nil {
			return nil, err
		}
		u, err := asn1ber.ParseUint(ts)
		if err != nil {
			return nil, err
		}
		m.PDU.GenericTrap, m.PDU.SpecificTrap, m.PDU.Timestamp = int(g), int(s), uint32(u)
	} else {
		_, reqID, err := pr.ReadInt()
		if err != nil {
			return nil, err
		}
		_, errStatus, err := pr.ReadInt()
		if err != nil {
			return nil, err
		}
		_, errIndex, err := pr.ReadInt()
		if err != nil {
			return nil, err
		}
		m.PDU.RequestID, m.PDU.ErrorStatus, m.PDU.ErrorIndex = int32(reqID), int(errStatus), int(errIndex)
	}
	bindsBytes, err := pr.ReadExpect(asn1ber.TagSequence)
	if err != nil {
		return nil, err
	}
	br := asn1ber.NewReader(bindsBytes)
	for !br.Empty() {
		one, err := br.ReadExpect(asn1ber.TagSequence)
		if err != nil {
			return nil, err
		}
		vr := asn1ber.NewReader(one)
		oidBytes, err := vr.ReadExpect(asn1ber.TagOID)
		if err != nil {
			return nil, err
		}
		arcs, err := asn1ber.ParseOID(oidBytes)
		if err != nil {
			return nil, err
		}
		val, err := mib.DecodeValue(vr)
		if err != nil {
			return nil, err
		}
		m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: mib.OID(arcs), Value: val})
	}
	return m, nil
}

// diffMessage reports the first field in which two messages differ, or "".
// A nil slice and an empty one are the same slice here: what a scratch
// message reuses is empty where a fresh one is nil.
func diffMessage(got, want *Message) string {
	switch {
	case got.Version != want.Version:
		return fmt.Sprintf("version %d, want %d", got.Version, want.Version)
	case got.Community != want.Community:
		return fmt.Sprintf("community %q, want %q", got.Community, want.Community)
	case got.PDU.Type != want.PDU.Type:
		return fmt.Sprintf("type %v, want %v", got.PDU.Type, want.PDU.Type)
	case got.PDU.RequestID != want.PDU.RequestID || got.PDU.ErrorStatus != want.PDU.ErrorStatus || got.PDU.ErrorIndex != want.PDU.ErrorIndex:
		return fmt.Sprintf("request header %d/%d/%d, want %d/%d/%d", got.PDU.RequestID, got.PDU.ErrorStatus, got.PDU.ErrorIndex,
			want.PDU.RequestID, want.PDU.ErrorStatus, want.PDU.ErrorIndex)
	case !slices.Equal(got.PDU.Enterprise, want.PDU.Enterprise) || !bytes.Equal(got.PDU.AgentAddr, want.PDU.AgentAddr) ||
		got.PDU.GenericTrap != want.PDU.GenericTrap || got.PDU.SpecificTrap != want.PDU.SpecificTrap || got.PDU.Timestamp != want.PDU.Timestamp:
		return fmt.Sprintf("trap header %+v, want %+v", got.PDU, want.PDU)
	case len(got.PDU.VarBinds) != len(want.PDU.VarBinds):
		return fmt.Sprintf("%d binds, want %d", len(got.PDU.VarBinds), len(want.PDU.VarBinds))
	}
	for i, g := range got.PDU.VarBinds {
		w := want.PDU.VarBinds[i]
		if !slices.Equal(g.OID, w.OID) || g.Value.Kind != w.Value.Kind || g.Value.Int != w.Value.Int || g.Value.Uint != w.Value.Uint ||
			!bytes.Equal(g.Value.Str, w.Value.Str) || !slices.Equal(g.Value.OID, w.Value.OID) {
			return fmt.Sprintf("bind %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// dirtyScratch returns messages that each hold the leavings of an earlier
// decode: longer than most inputs, empty of binds, another community, a trap.
func dirtyScratch(t testing.TB) []*Message {
	var many []VarBind
	for i := uint32(0); i < 40; i++ {
		many = append(many, VarBind{OID: mib.IfEntry.Append(2, i, i, i), Value: mib.Str("an interface description")})
	}
	var dirty []*Message
	for _, prev := range []*Message{
		{Version: V2c, Community: "public", PDU: PDU{Type: GetResponse, RequestID: 99, ErrorStatus: 5, ErrorIndex: 40, VarBinds: many}},
		{Version: V1, Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1}},
		{Version: V2c, Community: "another-community", PDU: PDU{Type: SetRequest, RequestID: 7, VarBinds: many[:1]}},
		{Version: V1, Community: "public", PDU: PDU{Type: TrapV1, Enterprise: mib.Enterprise.Append(9, 9, 9), AgentAddr: []byte{10, 1, 2, 3},
			GenericTrap: TrapEnterpriseSpecific, SpecificTrap: 77, Timestamp: 123456, VarBinds: many[:3]}},
	} {
		m := new(Message)
		if err := m.Unmarshal(oracleEncode(prev)); err != nil {
			t.Fatal(err)
		}
		dirty = append(dirty, m)
	}
	return dirty
}

// checkAgainstOracle holds Decode, Unmarshal into every dirty scratch, and
// Encode to the oracles for one input.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleDecode(data)
	got, err := Decode(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Decode(% x): err %v, oracle err %v", data, err, wantErr)
	}
	for i, scratch := range dirtyScratch(t) {
		err := scratch.Unmarshal(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Unmarshal(% x) into dirty scratch %d: err %v, oracle err %v", data, i, err, wantErr)
		}
		if err != nil {
			// Nothing of the bad input, nor of what was there, may show.
			if d := diffMessage(scratch, &Message{}); d != "" {
				t.Fatalf("failed Unmarshal(% x) into dirty scratch %d left %s", data, i, d)
			}
			continue
		}
		if d := diffMessage(scratch, want); d != "" {
			t.Fatalf("Unmarshal(% x) into dirty scratch %d: %s", data, i, d)
		}
	}
	if err != nil {
		return
	}
	if d := diffMessage(got, want); d != "" {
		t.Fatalf("Decode(% x): %s", data, d)
	}
	if b, o := got.Encode(), oracleEncode(want); !bytes.Equal(b, o) {
		t.Fatalf("Encode of Decode(% x):\n got % x\nwant % x", data, b, o)
	}
}

// tlvLengths returns the content length of each TLV on the path from the
// message down to the first bind's value: message, pdu, bind list, bind,
// value.
func tlvLengths(t *testing.T, b []byte) [5]int {
	t.Helper()
	var lens [5]int
	read := func(r *asn1ber.Reader) []byte {
		_, content, err := r.ReadTLV()
		if err != nil {
			t.Fatal(err)
		}
		return content
	}
	msg := read(asn1ber.NewReader(b))
	r := asn1ber.NewReader(msg)
	read(r) // version
	read(r) // community
	pdu := read(r)
	r = asn1ber.NewReader(pdu)
	read(r) // request-id
	read(r) // error-status
	read(r) // error-index
	binds := read(r)
	bind := read(asn1ber.NewReader(binds))
	r = asn1ber.NewReader(bind)
	read(r) // name
	value := read(r)
	lens = [5]int{len(msg), len(pdu), len(binds), len(bind), len(value)}
	return lens
}

// TestEncodeMatchesOracleAtLengthBoundaries sizes one bind's OCTET STRING
// so that, in turn, each TLV on the way down to it holds exactly each
// length at which a length field changes size: where EndTLV patches one
// octet in place and where it moves the content up to fit two or three.
func TestEncodeMatchesOracleAtLengthBoundaries(t *testing.T) {
	msgOf := func(community string, value []byte) *Message {
		return &Message{Version: V2c, Community: community, PDU: PDU{Type: GetResponse, RequestID: 1,
			VarBinds: []VarBind{{OID: mib.SysDescr, Value: mib.Bytes(value)}, {OID: mib.SysUpTime, Value: mib.Ticks(1)}}}}
	}
	check := func(m *Message) {
		t.Helper()
		if b, o := m.Encode(), oracleEncode(m); !bytes.Equal(b, o) {
			t.Fatalf("community %d octets, value %d: encoding differs from the oracle's (%d vs %d octets)",
				len(m.Community), len(m.PDU.VarBinds[0].Value.Str), len(b), len(o))
		}
		checkAgainstOracle(t, oracleEncode(m))
	}
	for _, n := range []int{0, 1, 127, 128, 255, 256, 65535, 65536} {
		check(msgOf(string(bytes.Repeat([]byte{'c'}, n)), nil))
		for level, name := range []string{"message", "pdu", "bind list", "bind", "value"} {
			// Every level above the value adds a fixed few octets, so the
			// value length that puts n at this level is within 64 of n.
			hit := false
			for size := max(0, n-64); size <= n && !hit; size++ {
				m := msgOf("public", make([]byte, size))
				if tlvLengths(t, oracleEncode(m))[level] == n {
					check(m)
					hit = true
				}
			}
			if !hit && n >= 127 {
				t.Errorf("no value size puts %d octets in the %s", n, name)
			}
		}
	}
}

// TestEveryPDUTypeMatchesOracle encodes and decodes one message of each
// type, TrapV1 with its own header included.
func TestEveryPDUTypeMatchesOracle(t *testing.T) {
	binds := []VarBind{
		{OID: mib.SysUpTime, Value: mib.Ticks(4242)},
		{OID: mib.IfEntry.Append(10, 1), Value: mib.Counter(1 << 31)},
		{OID: mib.SysDescr, Value: mib.Str("descr")},
		{OID: mib.MustOID("1.3.6.1.2.1.1.2.0"), Value: mib.OIDVal(mib.Enterprise.Append(1))},
		{OID: mib.Enterprise.Append(1, 0), Value: mib.Int(-129)},
		{OID: mib.Enterprise.Append(2, 0), Value: mib.IP([]byte{10, 0, 0, 1})},
		{OID: mib.Enterprise.Append(3, 0), Value: mib.Counter64Val(1 << 63)},
		{OID: mib.Enterprise.Append(4, 0), Value: mib.Gauge(7)},
		{OID: mib.Enterprise.Append(5, 0), Value: mib.NoSuchObject()},
		{OID: mib.Enterprise.Append(6, 0), Value: mib.EndOfMIB()},
		{OID: mib.Enterprise.Append(7, 0), Value: mib.Null()},
	}
	for _, typ := range []PDUType{GetRequest, GetNextRequest, GetResponse, SetRequest, TrapV1, GetBulkRequest, InformRequest, TrapV2} {
		for _, vbs := range [][]VarBind{nil, binds[:1], binds} {
			m := &Message{Version: V2c, Community: "public", PDU: PDU{Type: typ, RequestID: -7, ErrorStatus: 2, ErrorIndex: 300, VarBinds: vbs}}
			if typ == TrapV1 {
				m.Version = V1
				m.PDU = PDU{Type: TrapV1, Enterprise: mib.Enterprise, AgentAddr: []byte{10, 0, 0, 1},
					GenericTrap: TrapEnterpriseSpecific, SpecificTrap: 1, Timestamp: 1 << 31, VarBinds: vbs}
			}
			if b, o := m.Encode(), oracleEncode(m); !bytes.Equal(b, o) {
				t.Fatalf("%v with %d binds:\n got % x\nwant % x", typ, len(vbs), b, o)
			}
			checkAgainstOracle(t, oracleEncode(m))
		}
	}
}

// pollExchange is the two-bind poll cots sends each host, and the agent
// that answers it.
func pollExchange() (*Agent, *Message) {
	tr := mib.NewTree()
	tr.RegisterScalar(mib.SysUpTime, func() mib.Value { return mib.Ticks(100) })
	tr.RegisterScalar(mib.IfEntry.Append(10, 1), func() mib.Value { return mib.Counter(12345) })
	return NewAgent(tr, "public"), &Message{Version: V2c, Community: "public", PDU: PDU{Type: GetRequest, RequestID: 1,
		VarBinds: []VarBind{{OID: mib.SysUpTime, Value: mib.Null()}, {OID: mib.IfEntry.Append(10, 1), Value: mib.Null()}}}}
}

// loopback is a conn whose far end is an agent in the same call stack.
type loopback struct {
	agent *Agent
	resp  []byte
}

func (l *loopback) send(b []byte) error               { l.resp = l.agent.Handle(b); return nil }
func (l *loopback) recv(time.Duration) ([]byte, bool) { b := l.resp; l.resp = nil; return b, b != nil }
func (l *loopback) done()                             {}
func (l *loopback) Now() time.Duration                { return 0 }
func (l *loopback) Sleep(time.Duration)               {}

// TestRequestPathAllocations pins the allocation floors of the request
// path, measured: a datagram the caller keeps (Encode, Handle) is one
// allocation, and nothing else allocates in steady state. The manager hands
// its transport the request from its own buffer, so over the loopback a Get
// round trip costs only the agent's response copy.
func TestRequestPathAllocations(t *testing.T) {
	agent, poll := pollExchange()
	req := poll.Encode()
	resp := agent.Handle(req)

	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() { buf = poll.AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo into a warm buffer allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { poll.Encode() }); n != 1 {
		t.Errorf("Encode allocates %v times, want 1: the datagram", n)
	}
	var scratch Message
	if n := testing.AllocsPerRun(200, func() {
		if scratch.Unmarshal(resp) != nil || scratch.Unmarshal(req) != nil {
			t.Fatal("own encoding does not decode")
		}
	}); n != 0 {
		t.Errorf("Unmarshal into a warm scratch allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { agent.Handle(req) }); n != 1 {
		t.Errorf("Agent.Handle of the poll allocates %v times, want 1: the response datagram", n)
	}
	m := &manager{Community: "public", Version: V2c, Timeout: time.Second}
	far := &loopback{agent: agent}
	if n := testing.AllocsPerRun(200, func() {
		binds, err := m.read(far, GetRequest, poll.PDU.VarBinds[0].OID, poll.PDU.VarBinds[1].OID)
		if err != nil || len(binds) != 2 || binds[1].Value.Uint != 12345 {
			t.Fatalf("poll over loopback: %+v, %v", binds, err)
		}
	}); n != 1 {
		t.Errorf("a Get round trip allocates %v times, want 1: the response datagram Handle returns", n)
	}
}

// TestUnmarshalKeepsNothingOfItsInput: a decoded message reads the same
// after its datagram is overwritten, as a freed frame's payload is with
// poison, so a receiver may give the frame back once it has decoded it.
func TestUnmarshalKeepsNothingOfItsInput(t *testing.T) {
	binds := []VarBind{
		{OID: mib.SysDescr, Value: mib.Str("descr")},
		{OID: mib.MustOID("1.3.6.1.2.1.1.2.0"), Value: mib.OIDVal(mib.Enterprise.Append(1))},
		{OID: mib.Enterprise.Append(2, 0), Value: mib.IP([]byte{10, 0, 0, 1})},
		{OID: mib.Enterprise.Append(3, 0), Value: mib.Counter64Val(1 << 63)},
	}
	for _, m := range []*Message{
		{Version: V2c, Community: "public", PDU: PDU{Type: GetResponse, RequestID: 9, VarBinds: binds}},
		{Version: V1, Community: "public", PDU: PDU{Type: TrapV1, Enterprise: mib.Enterprise, AgentAddr: []byte{10, 0, 0, 1},
			GenericTrap: TrapEnterpriseSpecific, SpecificTrap: 1, Timestamp: 77, VarBinds: binds}},
	} {
		want := m.Encode()
		b := bytes.Clone(want)
		var into Message
		if err := into.Unmarshal(b); err != nil {
			t.Fatal(err)
		}
		decoded, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b {
			b[i] = 0xdb
		}
		if got := into.Encode(); !bytes.Equal(got, want) {
			t.Errorf("%v: Unmarshal's message changed with its input:\n got % x\nwant % x", m.PDU.Type, got, want)
		}
		if got := decoded.Encode(); !bytes.Equal(got, want) {
			t.Errorf("%v: Decode's message changed with its input:\n got % x\nwant % x", m.PDU.Type, got, want)
		}
	}
}
