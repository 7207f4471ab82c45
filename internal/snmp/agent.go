package snmp

import (
	"bytes"

	"repro/internal/mib"
	"repro/internal/netsim"
)

// Well-known ports.
const (
	AgentPort netsim.Port = 161
	TrapPort  netsim.Port = 162
)

// AgentStats counts protocol activity.
type AgentStats struct {
	InRequests   uint64
	OutResponses uint64
	AuthFailures uint64
	Malformed    uint64
	TrapsSent    uint64
}

// Agent serves a MIB tree using community authentication. The core request
// processing is transport-neutral (Handle: request datagram in, response
// datagram out); ServeSim feeds it from a simulated node's socket and
// ServeUDP (real.go) from a real one, as cmd/snmpd does.
type Agent struct {
	Tree      *mib.Tree
	Community string
	// MaxVarBinds bounds response size as real agents do; requests needing
	// more return tooBig.
	MaxVarBinds int

	Stats AgentStats

	// trap destinations
	trapSend []func([]byte)
	sysUp    func() uint32

	scratch *agentScratch // allocated by the first request
}

// agentScratch is what Handle decodes into, answers from and encodes in.
type agentScratch struct {
	req, resp Message
	buf       []byte
}

// NewAgent returns an agent over tree with the given read community.
func NewAgent(tree *mib.Tree, community string) *Agent {
	return &Agent{Tree: tree, Community: community, MaxVarBinds: 64}
}

// Handle processes one request datagram and returns the response datagram,
// or nil when no response should be sent (bad community, undecodable, or a
// trap addressed to us by mistake). The response is the caller's to keep.
func (a *Agent) Handle(req []byte) []byte { return bytes.Clone(a.handle(req)) }

// handle is Handle answering from the agent's scratch buffer: the response
// is valid until the agent's next request.
func (a *Agent) handle(req []byte) []byte {
	if a.scratch == nil {
		a.scratch = new(agentScratch)
	}
	msg, resp := &a.scratch.req, &a.scratch.resp
	if err := msg.Unmarshal(req); err != nil {
		a.Stats.Malformed++
		return nil
	}
	a.Stats.InRequests++
	switch msg.PDU.Type {
	case GetRequest, GetNextRequest, GetBulkRequest, SetRequest:
	default:
		return nil
	}
	if msg.Community != a.Community {
		a.Stats.AuthFailures++
		return nil
	}

	resp.Version, resp.Community = msg.Version, msg.Community
	resp.PDU = PDU{Type: GetResponse, RequestID: msg.PDU.RequestID, VarBinds: resp.PDU.VarBinds[:0]}

	switch {
	case msg.PDU.Type != GetBulkRequest && len(msg.PDU.VarBinds) > a.MaxVarBinds:
		// Real agents bound their response size; oversized requests get
		// tooBig rather than a fragmented answer.
		resp.PDU.ErrorStatus = ErrTooBig
	case msg.PDU.Type == GetRequest:
		a.doGet(msg, resp)
	case msg.PDU.Type == GetNextRequest:
		a.doGetNext(msg, resp)
	case msg.PDU.Type == GetBulkRequest:
		a.doGetBulk(msg, resp)
	case msg.PDU.Type == SetRequest:
		a.doSet(msg, resp)
	}
	a.Stats.OutResponses++
	a.scratch.buf = resp.AppendTo(a.scratch.buf[:0])
	return a.scratch.buf
}

// noSuchName turns resp into the error answer for the request's bind i.
func noSuchName(req, resp *Message, i int) {
	resp.PDU.ErrorStatus = ErrNoSuchName
	resp.PDU.ErrorIndex = i + 1
	resp.PDU.VarBinds = append(resp.PDU.VarBinds[:0], req.PDU.VarBinds...)
}

func (a *Agent) doGet(req, resp *Message) {
	for i, vb := range req.PDU.VarBinds {
		v, ok := a.Tree.Get(vb.OID)
		if !ok {
			if req.Version >= V2c {
				v = mib.NoSuchObject()
			} else {
				noSuchName(req, resp, i)
				return
			}
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: v})
	}
}

// next answers one GetNext bind; at the end of the MIB view it answers
// endOfMibView for oid itself and reports false.
func (a *Agent) next(oid mib.OID) (VarBind, bool) {
	next, v, ok := a.Tree.Next(oid)
	if !ok {
		return VarBind{OID: oid, Value: mib.EndOfMIB()}, false
	}
	return VarBind{OID: next, Value: v}, true
}

func (a *Agent) doGetNext(req, resp *Message) {
	for i, vb := range req.PDU.VarBinds {
		next, ok := a.next(vb.OID)
		if !ok && req.Version < V2c {
			noSuchName(req, resp, i)
			return
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, next)
	}
}

func (a *Agent) doGetBulk(req, resp *Message) {
	nonRepeaters := req.PDU.ErrorStatus
	maxReps := req.PDU.ErrorIndex
	if maxReps <= 0 {
		maxReps = 10
	}
	for i, vb := range req.PDU.VarBinds {
		reps := maxReps
		if i < nonRepeaters {
			reps = 1
		}
		cur := vb.OID
		for rep := 0; rep < reps; rep++ {
			if i >= nonRepeaters && len(resp.PDU.VarBinds) >= a.MaxVarBinds {
				return
			}
			next, ok := a.next(cur)
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, next)
			if !ok {
				break
			}
			cur = next.OID
		}
	}
}

func (a *Agent) doSet(req, resp *Message) {
	// Validate-then-commit in one pass: sets here are scalar and atomic
	// enough for the monitor's needs.
	for i, vb := range req.PDU.VarBinds {
		if err := a.Tree.Set(vb.OID, vb.Value); err != nil {
			noSuchName(req, resp, i)
			return
		}
	}
	resp.PDU.VarBinds = append(resp.PDU.VarBinds, req.PDU.VarBinds...)
}

// ServeSim binds the agent to a node's UDP port and serves it there
// (netsim.UDPSock.Serve), with no proc. It also wires sysUpTime for traps.
// The server answers from the agent's scratch buffer and the socket gives
// each request frame back, so a request costs no allocation.
func (a *Agent) ServeSim(n *netsim.Node, port netsim.Port) {
	if port == 0 {
		port = AgentPort
	}
	sock := n.OpenUDP(port)
	sock.Serve(func(pkt *netsim.Packet) {
		if resp := a.handle(pkt.Payload); resp != nil {
			sock.SendCopy(pkt.Src, pkt.SrcPort, resp, len(resp))
		}
	})
	if a.sysUp == nil {
		a.sysUp = func() uint32 { return uint32(n.LocalTime().Milliseconds() / 10) }
	}
}

// AddTrapDestSim registers a simulated trap destination; traps are sent
// from a dedicated ephemeral socket on n.
func (a *Agent) AddTrapDestSim(n *netsim.Node, dst netsim.Addr, port netsim.Port) {
	if port == 0 {
		port = TrapPort
	}
	sock := n.OpenUDP(0)
	a.trapSend = append(a.trapSend, func(b []byte) {
		sock.SendTo(dst, port, b)
	})
	if a.sysUp == nil {
		a.sysUp = func() uint32 { return uint32(n.LocalTime().Milliseconds() / 10) }
	}
}

// SnmpTrapOID is the v2c snmpTrapOID.0 object carried as the second
// var-bind of every v2 notification.
var snmpTrapOIDObj = mib.MustOID("1.3.6.1.6.3.1.1.4.1.0")

// SendTrapV2 emits an SNMPv2c trap: the notification identity travels in
// the var-bind list (sysUpTime.0 then snmpTrapOID.0), not in a special
// header as v1 traps do.
//
//lint:allow unusedexport test-pinned by TestTrapV2Delivery; retire together
func (a *Agent) SendTrapV2(trapOID mib.OID, binds []VarBind) {
	full := make([]VarBind, 0, len(binds)+2)
	full = append(full,
		VarBind{OID: mib.SysUpTime, Value: mib.Ticks(uint64(a.upTime()))},
		VarBind{OID: snmpTrapOIDObj, Value: mib.OIDVal(trapOID)},
	)
	full = append(full, binds...)
	a.sendTrap(&Message{Version: V2c, Community: a.Community,
		PDU: PDU{Type: TrapV2, RequestID: int32(a.Stats.TrapsSent + 1), VarBinds: full}})
}

// SendTrap emits an SNMPv1 trap to every registered destination.
func (a *Agent) SendTrap(enterprise mib.OID, agentAddr []byte, generic, specific int, binds []VarBind) {
	a.sendTrap(&Message{Version: V1, Community: a.Community, PDU: PDU{
		Type:         TrapV1,
		Enterprise:   enterprise,
		AgentAddr:    agentAddr,
		GenericTrap:  generic,
		SpecificTrap: specific,
		Timestamp:    a.upTime(),
		VarBinds:     binds,
	}})
}

// upTime is the agent's sysUpTime in ticks, 0 before it serves a node.
func (a *Agent) upTime() uint32 {
	if a.sysUp == nil {
		return 0
	}
	return a.sysUp()
}

func (a *Agent) sendTrap(msg *Message) {
	b := msg.Encode()
	for _, send := range a.trapSend {
		send(b)
	}
	a.Stats.TrapsSent++
}
