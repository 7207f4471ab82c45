package snmp

import (
	"bytes"
	"testing"

	"repro/internal/mib"
)

// FuzzMessageRoundTrip checks that any byte string Decode accepts yields a
// message whose own encoding is self-consistent: Encode(Decode(data)) must
// decode again, and re-encoding that second decode must reproduce the same
// bytes. (We do not require Encode(Decode(data)) == data — the decoder
// tolerates non-canonical BER and lossy widths, e.g. a 5-octet agent
// address or a 64-bit timestamp, which the encoder normalizes.) Every input
// also goes through checkAgainstOracle: Decode, Unmarshal into dirty scratch
// messages and Encode against the allocating codec they replaced.
func FuzzMessageRoundTrip(f *testing.F) {
	get := &Message{Version: V2c, Community: "public", PDU: PDU{
		Type: GetRequest, RequestID: 42,
		VarBinds: []VarBind{{OID: mib.SysUpTime, Value: mib.Null()}},
	}}
	f.Add(get.Encode())
	resp := &Message{Version: V1, Community: "private", PDU: PDU{
		Type: GetResponse, RequestID: 42, ErrorStatus: ErrNoSuchName, ErrorIndex: 1,
		VarBinds: []VarBind{
			{OID: mib.OID{1, 3, 6, 1, 2, 1, 1, 3, 0}, Value: mib.Ticks(12345)},
			{OID: mib.OID{1, 3, 6, 1, 2, 1, 2, 2, 1, 10, 1}, Value: mib.Counter(1 << 40)},
		},
	}}
	f.Add(resp.Encode())
	trap := &Message{Version: V1, Community: "public", PDU: PDU{
		Type: TrapV1, Enterprise: mib.Enterprise, AgentAddr: []byte{10, 0, 0, 1},
		GenericTrap: TrapLinkDown, SpecificTrap: 0, Timestamp: 4242,
		VarBinds: []VarBind{{OID: mib.Enterprise.Append(1), Value: mib.Int(2)}},
	}}
	f.Add(trap.Encode())
	bulk := &Message{Version: V2c, Community: "public", PDU: PDU{
		Type: GetBulkRequest, RequestID: 7, ErrorStatus: 0, ErrorIndex: 10,
		VarBinds: []VarBind{{OID: mib.OID{1, 3, 6, 1, 2, 1, 2, 2}, Value: mib.Null()}},
	}}
	f.Add(bulk.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
		m, err := Decode(data)
		if err != nil {
			return
		}
		b2 := m.Encode()
		m2, err := Decode(b2)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\ninput:   % x\nencoded: % x", err, data, b2)
		}
		if b3 := m2.Encode(); !bytes.Equal(b2, b3) {
			t.Fatalf("encoding not a fixed point:\ngen1: % x\ngen2: % x", b2, b3)
		}
	})
}
