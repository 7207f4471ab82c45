// Package snmp implements SNMPv1/v2c: BER message encoding, an agent that
// serves a mib.Tree, a manager client with polling and walking, and trap
// generation and collection — runnable both over the simulated network and
// over real UDP sockets.
//
// The stack reproduces the COTS network-management substrate of §5.2 of the
// paper, including its failure modes: requests, responses, and traps ride
// unreliable UDP and are lost under load; management stations have finite
// trap ingest capacity.
package snmp

import (
	"bytes"
	"fmt"

	"repro/internal/asn1ber"
	"repro/internal/mib"
)

// Version identifies the protocol version on the wire.
type Version int

// Protocol versions (wire values).
const (
	V1  Version = 0
	V2c Version = 1
)

// PDUType tags the operation.
type PDUType byte

// PDU types (context-constructed BER tags).
const (
	GetRequest     PDUType = 0xA0
	GetNextRequest PDUType = 0xA1
	GetResponse    PDUType = 0xA2
	SetRequest     PDUType = 0xA3
	TrapV1         PDUType = 0xA4
	GetBulkRequest PDUType = 0xA5
	InformRequest  PDUType = 0xA6
	TrapV2         PDUType = 0xA7
)

var pduNames = map[PDUType]string{
	GetRequest: "get", GetNextRequest: "getnext", GetResponse: "response", SetRequest: "set",
	TrapV1: "trap", GetBulkRequest: "getbulk", InformRequest: "inform", TrapV2: "trapv2",
}

func (t PDUType) String() string {
	if name, ok := pduNames[t]; ok {
		return name
	}
	return fmt.Sprintf("pdu-0x%02x", byte(t))
}

// Error status codes (RFC 1157).
//
//lint:allow unusedexport RFC 1157 error-status values 0-5: the block stays complete though this agent never answers badValue, readOnly or genErr
const (
	ErrNoError    = 0
	ErrTooBig     = 1
	ErrNoSuchName = 2
	ErrBadValue   = 3
	ErrReadOnly   = 4
	ErrGenErr     = 5
)

// Generic trap codes (RFC 1157).
//
//lint:allow unusedexport RFC 1157 generic-trap values 0-6: the block stays complete though only enterpriseSpecific traps are sent
const (
	TrapColdStart          = 0
	TrapWarmStart          = 1
	TrapLinkDown           = 2
	TrapLinkUp             = 3
	TrapAuthFailure        = 4
	TrapEGPNeighborLoss    = 5
	TrapEnterpriseSpecific = 6
)

// VarBind pairs an OID with a value.
type VarBind struct {
	OID   mib.OID
	Value mib.Value
}

// PDU is the protocol data unit of a message. For GetBulk requests,
// ErrorStatus holds non-repeaters and ErrorIndex max-repetitions, as the
// wire format overlays them. V1 traps use the Trap* fields instead of
// RequestID/Error*.
type PDU struct {
	Type        PDUType
	RequestID   int32
	ErrorStatus int
	ErrorIndex  int
	VarBinds    []VarBind

	// SNMPv1 trap header fields.
	Enterprise   mib.OID
	AgentAddr    []byte
	GenericTrap  int
	SpecificTrap int
	Timestamp    uint32
}

// Message is a community-based SNMP message.
type Message struct {
	Version   Version
	Community string
	PDU       PDU

	arcs []uint32 // what Unmarshal cuts the message's OIDs from
}

// Encode serializes the message to BER bytes the caller owns.
func (m *Message) Encode() []byte {
	var buf [128]byte // a poll or a trap fits; a longer message grows past it
	return bytes.Clone(m.AppendTo(buf[:0]))
}

// AppendTo appends the message's BER encoding to dst, nested TLVs in place.
func (m *Message) AppendTo(dst []byte) []byte {
	dst, msg := asn1ber.BeginTLV(dst, asn1ber.TagSequence)
	dst = asn1ber.AppendInt(dst, asn1ber.TagInteger, int64(m.Version))
	dst, community := asn1ber.BeginTLV(dst, asn1ber.TagOctetString)
	dst = append(dst, m.Community...)
	dst = asn1ber.EndTLV(dst, community)

	dst, pdu := asn1ber.BeginTLV(dst, byte(m.PDU.Type))
	if m.PDU.Type == TrapV1 {
		dst = asn1ber.AppendOID(dst, m.PDU.Enterprise)
		addr := m.PDU.AgentAddr
		if len(addr) != 4 {
			addr = []byte{0, 0, 0, 0}
		}
		dst = asn1ber.AppendString(dst, asn1ber.TagIPAddress, addr)
		dst = asn1ber.AppendInt(dst, asn1ber.TagInteger, int64(m.PDU.GenericTrap))
		dst = asn1ber.AppendInt(dst, asn1ber.TagInteger, int64(m.PDU.SpecificTrap))
		dst = asn1ber.AppendUint(dst, asn1ber.TagTimeTicks, uint64(m.PDU.Timestamp))
	} else {
		dst = asn1ber.AppendInt(dst, asn1ber.TagInteger, int64(m.PDU.RequestID))
		dst = asn1ber.AppendInt(dst, asn1ber.TagInteger, int64(m.PDU.ErrorStatus))
		dst = asn1ber.AppendInt(dst, asn1ber.TagInteger, int64(m.PDU.ErrorIndex))
	}
	dst, binds := asn1ber.BeginTLV(dst, asn1ber.TagSequence)
	var bind int // declared out here: := in the loop would shadow dst
	for i := range m.PDU.VarBinds {
		dst, bind = asn1ber.BeginTLV(dst, asn1ber.TagSequence)
		dst = asn1ber.AppendOID(dst, m.PDU.VarBinds[i].OID)
		dst = m.PDU.VarBinds[i].Value.Encode(dst)
		dst = asn1ber.EndTLV(dst, bind)
	}
	dst = asn1ber.EndTLV(dst, binds)
	dst = asn1ber.EndTLV(dst, pdu)
	return asn1ber.EndTLV(dst, msg)
}

// Decode parses a BER message into a Message of its own.
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	if err := m.Unmarshal(b); err != nil {
		return nil, err
	}
	return m, nil
}

// Unmarshal parses a BER message into m in place of what m held, reusing m's
// var-bind slice and cutting the bind names and the trap enterprise from one
// arena m keeps: they and the slice are valid until the next Unmarshal into
// m. Values own their storage and never alias b. On error m is left empty.
func (m *Message) Unmarshal(b []byte) error {
	*m = Message{Community: m.Community, PDU: PDU{VarBinds: m.PDU.VarBinds[:0]}, arcs: m.arcs[:0]}
	err := m.unmarshal(b)
	if err != nil {
		*m = Message{PDU: PDU{VarBinds: m.PDU.VarBinds[:0]}, arcs: m.arcs[:0]}
	}
	return err
}

// oid decodes OBJECT IDENTIFIER content octets into the message's arena.
func (m *Message) oid(content []byte) (oid mib.OID, err error) {
	start := len(m.arcs)
	m.arcs, err = asn1ber.AppendArcs(m.arcs, content)
	return m.arcs[start:len(m.arcs):len(m.arcs)], err
}

// unmarshal is Unmarshal onto an emptied m.
func (m *Message) unmarshal(b []byte) error {
	outer, err := asn1ber.NewReader(b).ReadExpect(asn1ber.TagSequence)
	if err != nil {
		return fmt.Errorf("snmp: message: %w", err)
	}
	r := asn1ber.NewReader(outer)
	_, ver, err := r.ReadInt()
	if err != nil {
		return fmt.Errorf("snmp: version: %w", err)
	}
	community, err := r.ReadExpect(asn1ber.TagOctetString)
	if err != nil {
		return fmt.Errorf("snmp: community: %w", err)
	}
	pduTag, pduBytes, err := r.ReadTLV()
	if err != nil {
		return fmt.Errorf("snmp: pdu: %w", err)
	}
	m.Version = Version(ver)
	if m.Community != string(community) {
		m.Community = string(community) // a scratch message sees one community, so this allocates once
	}
	m.PDU.Type = PDUType(pduTag)
	pr := asn1ber.NewReader(pduBytes)
	if m.PDU.Type == TrapV1 {
		entBytes, err := pr.ReadExpect(asn1ber.TagOID)
		if err != nil {
			return fmt.Errorf("snmp: trap enterprise: %w", err)
		}
		if m.PDU.Enterprise, err = m.oid(entBytes); err != nil {
			return err
		}
		addr, err := pr.ReadExpect(asn1ber.TagIPAddress)
		if err != nil {
			return fmt.Errorf("snmp: trap agent-addr: %w", err)
		}
		m.PDU.AgentAddr = append([]byte(nil), addr...)
		_, generic, err := pr.ReadInt()
		if err != nil {
			return err
		}
		_, specific, err := pr.ReadInt()
		if err != nil {
			return err
		}
		ts, err := pr.ReadExpect(asn1ber.TagTimeTicks)
		if err != nil {
			return fmt.Errorf("snmp: trap timestamp: %w", err)
		}
		u, err := asn1ber.ParseUint(ts)
		if err != nil {
			return err
		}
		m.PDU.GenericTrap, m.PDU.SpecificTrap, m.PDU.Timestamp = int(generic), int(specific), uint32(u)
	} else {
		_, reqID, err := pr.ReadInt()
		if err != nil {
			return fmt.Errorf("snmp: request-id: %w", err)
		}
		_, errStatus, err := pr.ReadInt()
		if err != nil {
			return err
		}
		_, errIndex, err := pr.ReadInt()
		if err != nil {
			return err
		}
		m.PDU.RequestID, m.PDU.ErrorStatus, m.PDU.ErrorIndex = int32(reqID), int(errStatus), int(errIndex)
	}
	bindsBytes, err := pr.ReadExpect(asn1ber.TagSequence)
	if err != nil {
		return fmt.Errorf("snmp: var-bind list: %w", err)
	}
	br := asn1ber.NewReader(bindsBytes)
	for !br.Empty() {
		one, err := br.ReadExpect(asn1ber.TagSequence)
		if err != nil {
			return fmt.Errorf("snmp: var-bind: %w", err)
		}
		vr := asn1ber.NewReader(one)
		oidBytes, err := vr.ReadExpect(asn1ber.TagOID)
		if err != nil {
			return err
		}
		oid, err := m.oid(oidBytes)
		if err != nil {
			return err
		}
		val, err := mib.DecodeValue(vr)
		if err != nil {
			return err
		}
		m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: oid, Value: val})
	}
	return nil
}
