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

func (t PDUType) String() string {
	switch t {
	case GetRequest:
		return "get"
	case GetNextRequest:
		return "getnext"
	case GetResponse:
		return "response"
	case SetRequest:
		return "set"
	case TrapV1:
		return "trap"
	case GetBulkRequest:
		return "getbulk"
	case InformRequest:
		return "inform"
	case TrapV2:
		return "trapv2"
	default:
		return fmt.Sprintf("pdu-0x%02x", byte(t))
	}
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
}

// Encode serializes the message to BER bytes.
func (m *Message) Encode() []byte {
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

// Decode parses a BER message.
func Decode(b []byte) (*Message, error) {
	outer, err := asn1ber.NewReader(b).ReadExpect(asn1ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("snmp: message: %w", err)
	}
	r := asn1ber.NewReader(outer)
	_, ver, err := r.ReadInt()
	if err != nil {
		return nil, fmt.Errorf("snmp: version: %w", err)
	}
	community, err := r.ReadExpect(asn1ber.TagOctetString)
	if err != nil {
		return nil, fmt.Errorf("snmp: community: %w", err)
	}
	pduTag, pduBytes, err := r.ReadTLV()
	if err != nil {
		return nil, fmt.Errorf("snmp: pdu: %w", err)
	}
	m := &Message{Version: Version(ver), Community: string(community)}
	m.PDU.Type = PDUType(pduTag)
	pr := asn1ber.NewReader(pduBytes)
	if m.PDU.Type == TrapV1 {
		entBytes, err := pr.ReadExpect(asn1ber.TagOID)
		if err != nil {
			return nil, fmt.Errorf("snmp: trap enterprise: %w", err)
		}
		arcs, err := asn1ber.ParseOID(entBytes)
		if err != nil {
			return nil, err
		}
		m.PDU.Enterprise = mib.OID(arcs)
		addr, err := pr.ReadExpect(asn1ber.TagIPAddress)
		if err != nil {
			return nil, fmt.Errorf("snmp: trap agent-addr: %w", err)
		}
		m.PDU.AgentAddr = append([]byte(nil), addr...)
		if _, g, err := pr.ReadInt(); err == nil {
			m.PDU.GenericTrap = int(g)
		} else {
			return nil, err
		}
		if _, s, err := pr.ReadInt(); err == nil {
			m.PDU.SpecificTrap = int(s)
		} else {
			return nil, err
		}
		ts, err := pr.ReadExpect(asn1ber.TagTimeTicks)
		if err != nil {
			return nil, fmt.Errorf("snmp: trap timestamp: %w", err)
		}
		u, err := asn1ber.ParseUint(ts)
		if err != nil {
			return nil, err
		}
		m.PDU.Timestamp = uint32(u)
	} else {
		_, reqID, err := pr.ReadInt()
		if err != nil {
			return nil, fmt.Errorf("snmp: request-id: %w", err)
		}
		_, errStatus, err := pr.ReadInt()
		if err != nil {
			return nil, err
		}
		_, errIndex, err := pr.ReadInt()
		if err != nil {
			return nil, err
		}
		m.PDU.RequestID = int32(reqID)
		m.PDU.ErrorStatus = int(errStatus)
		m.PDU.ErrorIndex = int(errIndex)
	}
	bindsBytes, err := pr.ReadExpect(asn1ber.TagSequence)
	if err != nil {
		return nil, fmt.Errorf("snmp: var-bind list: %w", err)
	}
	br := asn1ber.NewReader(bindsBytes)
	for !br.Empty() {
		one, err := br.ReadExpect(asn1ber.TagSequence)
		if err != nil {
			return nil, fmt.Errorf("snmp: var-bind: %w", err)
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
