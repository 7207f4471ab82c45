package snmp

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/mib"
	"repro/internal/netsim"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ErrTimeout reports a request that got no response within the retry
// budget — the normal failure mode of SNMP-over-UDP under load (§5.2.4).
var ErrTimeout = errors.New("snmp: request timed out")

// ClientStats counts manager-side protocol activity.
type ClientStats struct {
	Requests  uint64
	Retries   uint64
	Timeouts  uint64
	Responses uint64
	BytesSent uint64
	BytesRecv uint64
	// StaleDrops counts responses discarded because their RequestID did not
	// match the outstanding request (a late answer to an earlier retry).
	StaleDrops uint64
}

// conn is all the manager engine sees of the network: a datagram endpoint
// pointed at one agent, and that host's timer. The engine is written once
// against it; simConn (below) and udpConn (real.go) are the two
// implementations. NTTCP needs other things of a transport and has its own.
type conn interface {
	send(b []byte) error
	// recv returns the next datagram's payload, false after timeout.
	recv(timeout time.Duration) ([]byte, bool)
	Now() time.Duration
	Sleep(d time.Duration)
}

// manager is the SNMP manager engine — retry policy, counters and the one
// request loop — that Client and RealClient embed and Notifier drives.
type manager struct {
	Community string
	Version   Version
	Timeout   time.Duration
	Retries   int
	// Backoff, when non-nil, replaces the immediate retransmit with an
	// exponential-backoff schedule: retry n sleeps Backoff.Delay(n-1)
	// before going back on the wire, so a congested segment is not
	// hammered at a fixed cadence.
	Backoff *resilience.Backoff
	// Budget, when > 0, caps the total time one request may spend across
	// all attempts (listen windows and backoff waits included) — a
	// per-request deadline so a dead agent costs a bounded slice of the
	// sweep, not Timeout·(Retries+1).
	Budget time.Duration

	Stats ClientStats

	reqID int32
	// Reused from one request to the next.
	resp  Message
	buf   []byte
	binds []VarBind
}

// request sends pdu and waits for its answer, retrying as configured. The
// answer is valid until the engine's next request, which decodes over it.
func (m *manager) request(t conn, pdu PDU) (*Message, error) {
	m.reqID++
	pdu.RequestID = m.reqID
	msg := Message{Version: m.Version, Community: m.Community, PDU: pdu}
	m.buf = msg.AppendTo(m.buf[:0])
	b := bytes.Clone(m.buf) // the transport keeps what it is handed
	resp := &m.resp
	hard := time.Duration(-1) // absolute per-request deadline, <0 = none
	if m.Budget > 0 {
		hard = t.Now() + m.Budget
	}
	for attempt := 0; attempt <= m.Retries; attempt++ {
		if attempt > 0 {
			if wait := m.Backoff.Delay(attempt - 1); wait > 0 {
				if hard >= 0 && t.Now()+wait >= hard {
					break // budget would expire mid-wait: give up now
				}
				t.Sleep(wait)
			}
			m.Stats.Retries++
		}
		if hard >= 0 && t.Now() >= hard {
			break
		}
		m.Stats.Requests++
		m.Stats.BytesSent += uint64(len(b))
		if err := t.send(b); err != nil {
			return nil, err
		}
		deadline := t.Now() + m.Timeout
		if hard >= 0 && deadline > hard {
			deadline = hard
		}
		for {
			remain := deadline - t.Now()
			if remain <= 0 {
				break
			}
			payload, ok := t.recv(remain)
			if !ok {
				break
			}
			if err := resp.Unmarshal(payload); err != nil || resp.PDU.Type != GetResponse {
				continue
			}
			if resp.PDU.RequestID != pdu.RequestID {
				// Stale response from an earlier retry.
				m.Stats.StaleDrops++
				continue
			}
			m.Stats.Responses++
			m.Stats.BytesRecv += uint64(len(payload))
			return resp, nil
		}
	}
	m.Stats.Timeouts++
	return nil, ErrTimeout
}

// exchange is one Get, GetNext or Set: a request whose answer carries an
// error status, reported as an error naming the operation.
func (m *manager) exchange(t conn, typ PDUType, binds []VarBind) ([]VarBind, error) {
	resp, err := m.request(t, PDU{Type: typ, VarBinds: binds})
	if err != nil {
		return nil, err
	}
	if resp.PDU.ErrorStatus != ErrNoError {
		return nil, fmt.Errorf("snmp: %s: error status %d at index %d", typ, resp.PDU.ErrorStatus, resp.PDU.ErrorIndex)
	}
	return resp.PDU.VarBinds, nil
}

// read is an exchange asking for oids.
func (m *manager) read(t conn, typ PDUType, oids ...mib.OID) ([]VarBind, error) {
	return m.exchange(t, typ, m.nullBinds(oids...))
}

func (m *manager) nullBinds(oids ...mib.OID) []VarBind {
	m.binds = m.binds[:0]
	for _, o := range oids {
		m.binds = append(m.binds, VarBind{OID: o, Value: mib.Null()})
	}
	return m.binds
}

// walk gathers binds over many requests, so (as bulkWalk does) it copies
// each name out of the reused answer; a value owns its storage already.
func (m *manager) walk(t conn, prefix mib.OID) ([]VarBind, error) {
	var out []VarBind
	cur := prefix
	for {
		binds, err := m.read(t, GetNextRequest, cur)
		if err != nil {
			return out, err
		}
		if len(binds) == 0 {
			return out, nil
		}
		vb := binds[0]
		if vb.Value.Kind == mib.KindEndOfMIB || !vb.OID.HasPrefix(prefix) {
			return out, nil
		}
		if len(out) > 0 && vb.OID.Cmp(out[len(out)-1].OID) <= 0 {
			return out, fmt.Errorf("snmp: walk: agent OID ordering violation at %s", vb.OID)
		}
		vb.OID = vb.OID.Clone()
		out = append(out, vb)
		cur = vb.OID
	}
}

func (m *manager) bulkWalk(t conn, prefix mib.OID, maxReps int) ([]VarBind, error) {
	var out []VarBind
	cur := prefix
	for {
		// A bulk request carries max-repetitions in the error-index field
		// and its response has no status to check.
		resp, err := m.request(t, PDU{Type: GetBulkRequest, ErrorIndex: maxReps, VarBinds: m.nullBinds(cur)})
		if err != nil {
			return out, err
		}
		progressed := false
		for _, vb := range resp.PDU.VarBinds {
			if vb.Value.Kind == mib.KindEndOfMIB || !vb.OID.HasPrefix(prefix) {
				return out, nil
			}
			vb.OID = vb.OID.Clone()
			out = append(out, vb)
			cur = vb.OID
			progressed = true
		}
		if !progressed {
			return out, nil
		}
	}
}

// simConn runs the engine on the simulator: the calling proc (whose Now
// and Sleep it promotes), the endpoint's socket and the peer.
type simConn struct {
	*sim.Proc
	sock *netsim.UDPSock
	dst  netsim.Addr
	port netsim.Port
}

func (s *simConn) send(b []byte) error {
	s.sock.SendTo(s.dst, s.port, b)
	return nil
}

func (s *simConn) recv(timeout time.Duration) ([]byte, bool) {
	pkt, ok := s.sock.Recv(s.Proc, timeout)
	if !ok {
		return nil, false
	}
	return pkt.Payload, true
}

// Client is a manager-side SNMP endpoint on a simulated node: the manager
// engine on one simulated socket.
type Client struct {
	manager

	node *netsim.Node
	conn simConn
}

// NewClient opens a manager endpoint on node.
func NewClient(node *netsim.Node, community string) *Client {
	return &Client{
		manager: manager{Community: community, Version: V2c, Timeout: 500 * time.Millisecond, Retries: 1},
		node:    node,
		conn:    simConn{sock: node.OpenUDP(0), port: AgentPort},
	}
}

// EnableTelemetry publishes Stats under prefix (e.g. "cots.snmp"), one
// counter per field. A nil registry publishes nothing.
func (c *Client) EnableTelemetry(reg *telemetry.Registry, prefix string) {
	reg.CounterFunc(prefix+".requests", func() uint64 { return c.Stats.Requests })
	reg.CounterFunc(prefix+".retries", func() uint64 { return c.Stats.Retries })
	reg.CounterFunc(prefix+".timeouts", func() uint64 { return c.Stats.Timeouts })
	reg.CounterFunc(prefix+".responses", func() uint64 { return c.Stats.Responses })
	reg.CounterFunc(prefix+".stale_drops", func() uint64 { return c.Stats.StaleDrops })
	reg.CounterFunc(prefix+".bytes_sent", func() uint64 { return c.Stats.BytesSent })
	reg.CounterFunc(prefix+".bytes_recv", func() uint64 { return c.Stats.BytesRecv })
}

// to points the client's adapter at agent on behalf of p. A Client is
// single-proc by construction — every call shares its socket and request-id
// sequence — so one adapter, held by value, serves them all without
// allocating.
func (c *Client) to(p *sim.Proc, agent netsim.Addr) conn {
	c.conn.Proc, c.conn.dst = p, agent
	return &c.conn
}

// Get fetches exact OIDs from agent. The binds are decoded into storage
// the client reuses: they are valid until its next request.
func (c *Client) Get(p *sim.Proc, agent netsim.Addr, oids ...mib.OID) ([]VarBind, error) {
	return c.read(c.to(p, agent), GetRequest, oids...)
}

// Walk retrieves every object under prefix using GetNext. The binds are
// copies: they stay valid whatever the client does next.
func (c *Client) Walk(p *sim.Proc, agent netsim.Addr, prefix mib.OID) ([]VarBind, error) {
	return c.walk(c.to(p, agent), prefix)
}

// BulkWalk retrieves every object under prefix using GetBulk. The binds are
// copies, as Walk's are.
func (c *Client) BulkWalk(p *sim.Proc, agent netsim.Addr, prefix mib.OID, maxReps int) ([]VarBind, error) {
	return c.bulkWalk(c.to(p, agent), prefix, maxReps)
}

// TrapSinkStats tracks the lifecycle of traps that reached the application
// queue. Traps lost earlier, in the socket receive buffer, are counted by the
// socket: TrapSink.SocketDrops is the one source for that number.
type TrapSinkStats struct {
	Arrived   uint64 // reached the application queue
	Dropped   uint64 // lost at the application queue (station overrun)
	Processed uint64
	// InformsAcked counts InformRequests acknowledged; unacked informs
	// (queue full) leave the sender to retry — natural backpressure that
	// plain traps lack.
	InformsAcked uint64
}

// TrapSink is a management-station trap receiver with a bounded ingest
// queue and a fixed per-trap processing cost — the model under which
// SunNet Manager was overrun in §5.2.4.
type TrapSink struct {
	Node *netsim.Node
	Port netsim.Port
	// QueueCap bounds the application ingest queue.
	QueueCap int
	// ProcTime is the CPU time consumed per trap.
	ProcTime time.Duration
	// OnTrap is invoked for every processed trap.
	OnTrap func(*Message, netsim.Addr)

	Stats TrapSinkStats

	sock  *netsim.UDPSock
	queue *sim.Queue[trapItem]
}

type trapItem struct {
	msg  *Message
	from netsim.Addr
}

// DefaultTrapQueueCap bounds the sink's application queue when the caller
// passes no explicit capacity: a station overrun must shed traps with
// accounting, never buffer without limit.
const DefaultTrapQueueCap = 256

// StartTrapSink binds the sink and spawns its receiver and processor
// procs. A non-positive queueCap gets DefaultTrapQueueCap — the queue is
// always bounded.
func StartTrapSink(n *netsim.Node, port netsim.Port, queueCap int, procTime time.Duration) *TrapSink {
	if port == 0 {
		port = TrapPort
	}
	if queueCap <= 0 {
		queueCap = DefaultTrapQueueCap
	}
	s := &TrapSink{
		Node:     n,
		Port:     port,
		QueueCap: queueCap,
		ProcTime: procTime,
		sock:     n.OpenUDP(port),
		queue:    sim.NewQueue[trapItem](n.Network().K, queueCap),
	}
	n.Spawn("trap-rx", func(p *sim.Proc) {
		for {
			pkt, ok := s.sock.Recv(p, -1)
			if !ok {
				return
			}
			msg, err := Decode(pkt.Payload)
			if err != nil {
				continue
			}
			switch msg.PDU.Type {
			case TrapV1, TrapV2:
				if s.queue.Put(trapItem{msg, pkt.Src}) {
					s.Stats.Arrived++
				} else {
					s.Stats.Dropped++
				}
			case InformRequest:
				// Acknowledge only what the station can actually ingest;
				// an unacked inform is retried by its sender.
				if s.queue.Put(trapItem{msg, pkt.Src}) {
					s.Stats.Arrived++
					s.Stats.InformsAcked++
					ack := &Message{Version: msg.Version, Community: msg.Community}
					ack.PDU = PDU{Type: GetResponse, RequestID: msg.PDU.RequestID, VarBinds: msg.PDU.VarBinds}
					s.sock.SendTo(pkt.Src, pkt.SrcPort, ack.Encode())
				} else {
					s.Stats.Dropped++
				}
			}
		}
	})
	n.Spawn("trap-proc", func(p *sim.Proc) {
		for {
			item, ok := s.queue.Get(p, -1)
			if !ok {
				return
			}
			if s.ProcTime > 0 {
				p.Sleep(s.ProcTime)
			}
			s.Stats.Processed++
			if s.OnTrap != nil {
				s.OnTrap(item.msg, item.from)
			}
		}
	})
	return s
}

// QueueLen reports how many accepted traps wait in the ingest queue.
func (s *TrapSink) QueueLen() int { return s.queue.Len() }

// SocketDrops reports traps lost in the socket receive buffer, before the
// application queue saw them — the count Stats does not carry.
func (s *TrapSink) SocketDrops() uint64 { return s.sock.Drops }
