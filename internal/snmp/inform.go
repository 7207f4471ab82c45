package snmp

import (
	"errors"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// InformRequest (SNMPv2c) is the acknowledged alternative to traps: the
// receiver answers with a Response PDU and the sender retries until acked.
// The paper observed traps being lost under load (§5.2.4); informs are the
// COTS-era remedy, at the cost of more traffic and sender-side state. The
// A1 ablation quantifies that trade.

// ErrInformDropped reports an inform that exhausted its retries.
var ErrInformDropped = errors.New("snmp: inform not acknowledged")

// NotifierStats counts inform activity.
type NotifierStats struct {
	Sent   uint64 // inform attempts on the wire (including retries)
	Acked  uint64 // informs acknowledged
	Failed uint64 // informs abandoned after retries
}

// Notifier sends acknowledged notifications from a simulated node to one
// management station.
type Notifier struct {
	Community string
	Timeout   time.Duration
	Retries   int

	Stats NotifierStats

	node  *netsim.Node
	dst   netsim.Addr
	port  netsim.Port
	sock  *netsim.UDPSock
	reqID int32
}

// NewNotifier creates an inform sender toward dst:port (TrapPort default).
func NewNotifier(node *netsim.Node, dst netsim.Addr, port netsim.Port, community string) *Notifier {
	if port == 0 {
		port = TrapPort
	}
	return &Notifier{
		Community: community,
		Timeout:   500 * time.Millisecond,
		Retries:   4,
		node:      node,
		dst:       dst,
		port:      port,
		sock:      node.OpenUDP(0),
	}
}

// Inform sends one notification and blocks the proc until acknowledged or
// the retry budget is exhausted. An inform is an ordinary confirmed request
// — the station answers with a Response PDU — so it rides the manager's
// request loop. InformAsync puts several procs in here at once, so engine
// and adapter are per call; only the request-id sequence is shared.
func (n *Notifier) Inform(p *sim.Proc, binds []VarBind) error {
	m := manager{Community: n.Community, Version: V2c, Timeout: n.Timeout,
		Retries: n.Retries, reqID: n.reqID}
	n.reqID++ // the id m.request takes
	_, err := m.request(&simConn{Proc: p, sock: n.sock, dst: n.dst, port: n.port},
		PDU{Type: InformRequest, VarBinds: binds})
	n.Stats.Sent += m.Stats.Requests
	if err != nil {
		n.Stats.Failed++
		return ErrInformDropped
	}
	n.Stats.Acked++
	return nil
}

// InformAsync fires an inform from its own proc (non-blocking for the
// caller); failures only show in Stats.
//
//lint:allow unusedexport test-pinned by TestInformAsync; retire together
func (n *Notifier) InformAsync(binds []VarBind) {
	n.node.Spawn("inform", func(p *sim.Proc) {
		n.Inform(p, binds) //lint:allow droperr async by contract: failures are counted in Stats.Failed
	})
}

// EventBind builds a conventional (sysUpTime, trapOID-style) bind list for
// an enterprise-specific event.
func EventBind(specific int, extra ...VarBind) []VarBind {
	binds := []VarBind{
		{OID: mib.Enterprise.Append(0, uint32(specific)), Value: mib.Int(int64(specific))},
	}
	return append(binds, extra...)
}
