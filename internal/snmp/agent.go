package snmp

import (
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
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
	// WriteCommunity, when non-empty, is required for Set; otherwise Set
	// uses Community.
	WriteCommunity string
	// MaxVarBinds bounds response size as real agents do; requests needing
	// more return tooBig.
	MaxVarBinds int

	Stats AgentStats

	// trap destinations
	trapSend []func([]byte)
	sysUp    func() uint32
}

// NewAgent returns an agent over tree with the given read community.
func NewAgent(tree *mib.Tree, community string) *Agent {
	return &Agent{Tree: tree, Community: community, MaxVarBinds: 64}
}

// Handle processes one request datagram and returns the response datagram,
// or nil when no response should be sent (bad community, undecodable, or a
// trap addressed to us by mistake).
func (a *Agent) Handle(req []byte) []byte {
	msg, err := Decode(req)
	if err != nil {
		a.Stats.Malformed++
		return nil
	}
	a.Stats.InRequests++
	switch msg.PDU.Type {
	case GetRequest, GetNextRequest, GetBulkRequest:
		if msg.Community != a.Community {
			a.Stats.AuthFailures++
			return nil
		}
	case SetRequest:
		want := a.WriteCommunity
		if want == "" {
			want = a.Community
		}
		if msg.Community != want {
			a.Stats.AuthFailures++
			return nil
		}
	default:
		return nil
	}

	resp := &Message{Version: msg.Version, Community: msg.Community}
	resp.PDU.Type = GetResponse
	resp.PDU.RequestID = msg.PDU.RequestID

	if msg.PDU.Type != GetBulkRequest && len(msg.PDU.VarBinds) > a.MaxVarBinds {
		// Real agents bound their response size; oversized requests get
		// tooBig rather than a fragmented answer.
		resp.PDU.ErrorStatus = ErrTooBig
		a.Stats.OutResponses++
		return resp.Encode()
	}

	switch msg.PDU.Type {
	case GetRequest:
		a.doGet(msg, resp)
	case GetNextRequest:
		a.doGetNext(msg, resp)
	case GetBulkRequest:
		a.doGetBulk(msg, resp)
	case SetRequest:
		a.doSet(msg, resp)
	}
	a.Stats.OutResponses++
	return resp.Encode()
}

func (a *Agent) doGet(req, resp *Message) {
	for i, vb := range req.PDU.VarBinds {
		v, ok := a.Tree.Get(vb.OID)
		if !ok {
			if req.Version >= V2c {
				v = mib.NoSuchObject()
			} else {
				resp.PDU.ErrorStatus = ErrNoSuchName
				resp.PDU.ErrorIndex = i + 1
				resp.PDU.VarBinds = req.PDU.VarBinds
				return
			}
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: v})
	}
}

func (a *Agent) doGetNext(req, resp *Message) {
	for i, vb := range req.PDU.VarBinds {
		oid, v, ok := a.Tree.Next(vb.OID)
		if !ok {
			if req.Version >= V2c {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: mib.EndOfMIB()})
				continue
			}
			resp.PDU.ErrorStatus = ErrNoSuchName
			resp.PDU.ErrorIndex = i + 1
			resp.PDU.VarBinds = req.PDU.VarBinds
			return
		}
		resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: oid, Value: v})
	}
}

func (a *Agent) doGetBulk(req, resp *Message) {
	nonRepeaters := req.PDU.ErrorStatus
	maxReps := req.PDU.ErrorIndex
	if maxReps <= 0 {
		maxReps = 10
	}
	for i, vb := range req.PDU.VarBinds {
		if i < nonRepeaters {
			oid, v, ok := a.Tree.Next(vb.OID)
			if !ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: mib.EndOfMIB()})
			} else {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: oid, Value: v})
			}
			continue
		}
		cur := vb.OID
		for rep := 0; rep < maxReps; rep++ {
			if len(resp.PDU.VarBinds) >= a.MaxVarBinds {
				return
			}
			oid, v, ok := a.Tree.Next(cur)
			if !ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: cur, Value: mib.EndOfMIB()})
				break
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: oid, Value: v})
			cur = oid
		}
	}
}

func (a *Agent) doSet(req, resp *Message) {
	// Validate-then-commit in one pass: sets here are scalar and atomic
	// enough for the monitor's needs.
	for i, vb := range req.PDU.VarBinds {
		if err := a.Tree.Set(vb.OID, vb.Value); err != nil {
			resp.PDU.ErrorStatus = ErrNoSuchName
			resp.PDU.ErrorIndex = i + 1
			resp.PDU.VarBinds = req.PDU.VarBinds
			return
		}
	}
	resp.PDU.VarBinds = req.PDU.VarBinds
}

// ServeSim binds the agent to a node's UDP port and spawns its server proc.
// It also wires trap emission and sysUpTime for traps.
func (a *Agent) ServeSim(n *netsim.Node, port netsim.Port) {
	if port == 0 {
		port = AgentPort
	}
	sock := n.OpenUDP(port)
	n.Spawn("snmpd", func(p *sim.Proc) {
		for {
			pkt, ok := sock.Recv(p, -1)
			if !ok {
				return
			}
			if resp := a.Handle(pkt.Payload); resp != nil {
				sock.SendTo(pkt.Src, pkt.SrcPort, resp)
			}
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
	agentIP := mib.PseudoIP(n.Name)
	a.trapSend = append(a.trapSend, func(b []byte) {
		sock.SendTo(dst, port, b)
	})
	if a.sysUp == nil {
		a.sysUp = func() uint32 { return uint32(n.LocalTime().Milliseconds() / 10) }
	}
	_ = agentIP
}

// AddTrapDestFunc registers an arbitrary trap transport: SendTrap hands
// send each encoded trap, which is how a real-UDP destination is attached.
func (a *Agent) AddTrapDestFunc(send func([]byte)) {
	a.trapSend = append(a.trapSend, send)
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
	var ts uint32
	if a.sysUp != nil {
		ts = a.sysUp()
	}
	full := make([]VarBind, 0, len(binds)+2)
	full = append(full,
		VarBind{OID: mib.SysUpTime, Value: mib.Ticks(uint64(ts))},
		VarBind{OID: snmpTrapOIDObj, Value: mib.OIDVal(trapOID)},
	)
	full = append(full, binds...)
	msg := &Message{Version: V2c, Community: a.Community}
	msg.PDU = PDU{Type: TrapV2, RequestID: int32(a.Stats.TrapsSent + 1), VarBinds: full}
	b := msg.Encode()
	for _, send := range a.trapSend {
		send(b)
	}
	a.Stats.TrapsSent++
}

// SendTrap emits an SNMPv1 trap to every registered destination.
func (a *Agent) SendTrap(enterprise mib.OID, agentAddr []byte, generic, specific int, binds []VarBind) {
	var ts uint32
	if a.sysUp != nil {
		ts = a.sysUp()
	}
	msg := &Message{Version: V1, Community: a.Community}
	msg.PDU = PDU{
		Type:         TrapV1,
		Enterprise:   enterprise,
		AgentAddr:    agentAddr,
		GenericTrap:  generic,
		SpecificTrap: specific,
		Timestamp:    ts,
		VarBinds:     binds,
	}
	b := msg.Encode()
	for _, send := range a.trapSend {
		send(b)
	}
	a.Stats.TrapsSent++
}

// Poller periodically issues the same Get through a client and hands the
// results to a callback; the building block of manager-side monitoring.
//
//lint:allow unusedexport test-pinned by TestPollerPolls and TestPollerTimeoutPath; retire together
type Poller struct {
	Client   *Client
	Agent    netsim.Addr
	OIDs     []mib.OID
	Interval time.Duration
	// OnResult receives the polled binds; err is non-nil on timeout.
	OnResult func(binds []VarBind, err error)

	Polls uint64
}

// Run spawns the polling proc on the client's node.
//
//lint:allow unusedexport test-pinned with Poller
func (po *Poller) Run() *sim.Proc {
	return po.Client.node.Spawn("snmp-poller", func(p *sim.Proc) {
		for {
			binds, err := po.Client.Get(p, po.Agent, po.OIDs...)
			po.Polls++
			if po.OnResult != nil {
				po.OnResult(binds, err)
			}
			p.Sleep(po.Interval)
		}
	})
}
