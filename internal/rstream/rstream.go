// Package rstream implements a reliable byte-stream transport over the
// simulated datagram network: a TCP-like protocol with three-way handshake,
// cumulative acknowledgements, go-back-N retransmission, Jacobson RTT
// estimation, and slow-start/AIMD-style congestion control.
//
// It is the TCP connection whose state E9 counts: each connection
// maintains exactly the twenty-two state variables Stallings enumerates for
// a TCP connection (see StateVars); the SNMP tcpConnTable exposes five of
// them, which is the fidelity gap §5.2.4 quantifies. Connections are never
// closed; they live as long as the simulation.
package rstream

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// MSS is the maximum segment payload in bytes.
const MSS = 1460

// headerSize is the transport header cost of every segment.
const headerSize = 16

// State is the connection state, with TCP's names.
type State uint8

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateListen:
		return "listen"
	case StateSynSent:
		return "synSent"
	case StateSynReceived:
		return "synReceived"
	case StateEstablished:
		return "established"
	default:
		return "state?"
	}
}

// segment flags.
const (
	flagSYN = 1 << iota
	flagACK
	flagDATA
)

type segment struct {
	flags uint8
	seq   uint32 // first byte of data
	ack   uint32 // next expected byte
	wnd   uint32 // receiver window in bytes
	dlen  uint32 // data length in bytes (synthetic payload)
}

func (s segment) encode() []byte {
	b := make([]byte, headerSize)
	b[0] = s.flags
	binary.BigEndian.PutUint32(b[1:5], s.seq)
	binary.BigEndian.PutUint32(b[5:9], s.ack)
	binary.BigEndian.PutUint32(b[9:13], s.wnd)
	b[13] = byte(s.dlen >> 16)
	b[14] = byte(s.dlen >> 8)
	b[15] = byte(s.dlen)
	return b
}

func decodeSegment(b []byte) (segment, error) {
	if len(b) < headerSize {
		return segment{}, fmt.Errorf("rstream: short segment (%d bytes)", len(b))
	}
	return segment{
		flags: b[0],
		seq:   binary.BigEndian.Uint32(b[1:5]),
		ack:   binary.BigEndian.Uint32(b[5:9]),
		wnd:   binary.BigEndian.Uint32(b[9:13]),
		dlen:  uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15]),
	}, nil
}

// StateVars is the full connection state a TCP implementation maintains —
// twenty-two variables (Stallings, 2nd ed., p.111). The standard SNMP
// tcpConnTable exposes only the first five.
type StateVars struct {
	State       State
	LocalAddr   netsim.Addr
	LocalPort   netsim.Port
	RemoteAddr  netsim.Addr
	RemotePort  netsim.Port
	ISS         uint32 // initial send sequence
	IRS         uint32 // initial receive sequence
	SndUna      uint32 // oldest unacknowledged byte
	SndNxt      uint32 // next byte to send
	SndWnd      uint32 // peer-advertised window
	CWnd        uint32 // congestion window
	SSThresh    uint32
	RcvNxt      uint32 // next byte expected
	RcvWnd      uint32 // our advertised window
	SRTT        time.Duration
	RTTVar      time.Duration
	RTO         time.Duration
	SegsIn      uint64
	SegsOut     uint64
	RetransSegs uint64
	BytesIn     uint64
	BytesOut    uint64
}

// NumStateVars and NumMIBVars record the coverage ratio the paper cites.
const (
	NumStateVars = 22
	NumMIBVars   = 5
)

type sendItem struct {
	seq  uint32
	dlen uint32
	sent time.Duration // last transmission time (for RTT sampling)
	rtx  bool          // retransmitted at least once (Karn's rule)
}

// Conn is one endpoint of a reliable stream.
type Conn struct {
	node *netsim.Node
	sock *netsim.UDPSock // owned by client conns; the listener's for accepted conns

	vars StateVars

	// send side
	outstanding []sendItem
	sendWaiters *sim.Queue[struct{}]
	rtxTimer    sim.Timer
	rtoBackoff  int

	// receive side
	recvQ *sim.Queue[int] // delivered data lengths, in order

	// connWaiters is signalled when the handshake completes.
	connWaiters *sim.Queue[struct{}]
}

func newConn(node *netsim.Node, sock *netsim.UDPSock) *Conn {
	k := node.Network().K
	c := &Conn{
		node:        node,
		sock:        sock,
		sendWaiters: sim.NewQueue[struct{}](k, 0),
		recvQ:       sim.NewQueue[int](k, 0),
		connWaiters: sim.NewQueue[struct{}](k, 0),
	}
	c.vars.LocalAddr = node.Name
	c.vars.RTO = 500 * time.Millisecond
	c.vars.CWnd = 4 * MSS
	c.vars.SSThresh = 64 * MSS
	c.vars.RcvWnd = 64 * MSS
	c.vars.SndWnd = 64 * MSS
	return c
}

// Vars returns a snapshot of all 22 connection state variables.
func (c *Conn) Vars() StateVars { return c.vars }

func (c *Conn) k() *sim.Kernel { return c.node.Network().K }

// Dial opens a connection from node to addr:port. It blocks the proc until
// the handshake completes or times out.
func Dial(p *sim.Proc, node *netsim.Node, addr netsim.Addr, port netsim.Port, timeout time.Duration) (*Conn, error) {
	sock := node.OpenUDP(0)
	c := newConn(node, sock)
	c.vars.LocalPort = sock.Port()
	c.vars.RemoteAddr = addr
	c.vars.RemotePort = port
	c.vars.ISS = 1
	c.vars.SndUna, c.vars.SndNxt = c.vars.ISS, c.vars.ISS
	c.vars.State = StateSynSent
	node.Spawn(fmt.Sprintf("rstream-drv-%d", sock.Port()), func(dp *sim.Proc) {
		c.drive(dp)
	})
	// Retransmit the SYN within the timeout budget, as TCP does: the
	// handshake must survive datagram loss.
	attempts := 3
	perAttempt := timeout / time.Duration(attempts)
	for i := 0; i < attempts && c.vars.State == StateSynSent; i++ {
		c.sendSeg(segment{flags: flagSYN, seq: c.vars.ISS, wnd: c.vars.RcvWnd}, 0)
		c.connWaiters.Get(p, perAttempt)
	}
	if c.vars.State != StateEstablished {
		sock.Close()
		return nil, fmt.Errorf("rstream: connect %s:%d: timeout", addr, port)
	}
	return c, nil
}

// drive consumes datagrams for a client connection.
func (c *Conn) drive(p *sim.Proc) {
	for {
		pkt, ok := c.sock.Recv(p, -1)
		if !ok {
			return
		}
		c.onDatagram(pkt)
	}
}

func (c *Conn) sendSeg(seg segment, dataBytes int) {
	seg.ack = c.vars.RcvNxt
	seg.wnd = c.vars.RcvWnd
	if seg.dlen == 0 {
		seg.dlen = uint32(dataBytes)
	}
	payload := seg.encode()
	c.sock.SendProto(c.vars.RemoteAddr, c.vars.RemotePort, payload, headerSize+int(seg.dlen), netsim.RDP)
	c.vars.SegsOut++
	if seg.dlen > 0 {
		c.vars.BytesOut += uint64(seg.dlen)
	}
}

// onDatagram processes one arriving segment. It runs in driver-proc or
// listener-proc context, serialized by the kernel.
func (c *Conn) onDatagram(pkt *netsim.Packet) {
	seg, err := decodeSegment(pkt.Payload)
	if err != nil {
		return
	}
	c.vars.SegsIn++
	switch c.vars.State {
	case StateSynSent:
		if seg.flags&(flagSYN|flagACK) == flagSYN|flagACK && seg.ack == c.vars.ISS+1 {
			c.vars.IRS = seg.seq
			c.vars.RcvNxt = seg.seq + 1
			c.vars.SndUna = seg.ack
			c.vars.SndNxt = seg.ack
			c.vars.SndWnd = seg.wnd
			c.vars.State = StateEstablished
			c.sendSeg(segment{flags: flagACK}, 0)
			c.connWaiters.Put(struct{}{})
		}
	case StateSynReceived:
		if seg.flags&flagSYN != 0 {
			// Retransmitted SYN: our SYN|ACK was lost; answer again.
			c.sendSeg(segment{flags: flagSYN | flagACK, seq: c.vars.ISS, wnd: c.vars.RcvWnd}, 0)
			return
		}
		if seg.flags&flagACK != 0 && seg.ack == c.vars.ISS+1 {
			c.vars.SndUna = seg.ack
			c.vars.SndNxt = seg.ack
			c.vars.State = StateEstablished
			c.connWaiters.Put(struct{}{})
		}
	case StateEstablished:
		if seg.flags&flagACK != 0 {
			c.processAck(seg)
		}
		if seg.flags&flagDATA != 0 {
			c.processData(seg)
		}
	}
}

func (c *Conn) processAck(seg segment) {
	c.vars.SndWnd = seg.wnd
	if seg.ack <= c.vars.SndUna || seg.ack > c.vars.SndNxt {
		return
	}
	now := c.k().Now()
	acked := 0
	for len(c.outstanding) > 0 {
		it := c.outstanding[0]
		if it.seq+it.dlen > seg.ack {
			break
		}
		if !it.rtx {
			c.sampleRTT(now - it.sent)
		}
		c.outstanding = c.outstanding[1:]
		acked++
	}
	c.vars.SndUna = seg.ack
	c.rtoBackoff = 0
	// Congestion control: slow start below ssthresh, then linear growth.
	for i := 0; i < acked; i++ {
		if c.vars.CWnd < c.vars.SSThresh {
			c.vars.CWnd += MSS
		} else {
			c.vars.CWnd += MSS * MSS / c.vars.CWnd
		}
	}
	if len(c.outstanding) == 0 {
		c.stopRtx()
	} else {
		c.armRtx()
	}
	// Window space freed: wake all blocked senders.
	for c.sendWaiters.Put(struct{}{}) {
		if c.sendWaiters.Len() > 0 {
			// No waiter consumed it; drop the token and stop.
			c.sendWaiters.Drain()
			break
		}
	}
}

func (c *Conn) processData(seg segment) {
	if seg.seq != c.vars.RcvNxt {
		// Out of order under go-back-N: discard, re-ack.
		c.sendSeg(segment{flags: flagACK}, 0)
		return
	}
	c.vars.RcvNxt += seg.dlen
	c.vars.BytesIn += uint64(seg.dlen)
	c.recvQ.Put(int(seg.dlen))
	c.sendSeg(segment{flags: flagACK}, 0)
}

func (c *Conn) sampleRTT(rtt time.Duration) {
	if c.vars.SRTT == 0 {
		c.vars.SRTT = rtt
		c.vars.RTTVar = rtt / 2
	} else {
		diff := rtt - c.vars.SRTT
		if diff < 0 {
			diff = -diff
		}
		c.vars.RTTVar = (3*c.vars.RTTVar + diff) / 4
		c.vars.SRTT = (7*c.vars.SRTT + rtt) / 8
	}
	rto := c.vars.SRTT + 4*c.vars.RTTVar
	if rto < 10*time.Millisecond {
		rto = 10 * time.Millisecond
	}
	c.vars.RTO = rto
}

func (c *Conn) armRtx() {
	c.stopRtx()
	rto := c.vars.RTO << c.rtoBackoff
	c.rtxTimer = c.k().After(rto, c.onRtxTimeout)
}

func (c *Conn) stopRtx() {
	c.rtxTimer.Stop()
	c.rtxTimer = sim.Timer{}
}

func (c *Conn) onRtxTimeout() {
	if len(c.outstanding) == 0 {
		return
	}
	// Multiplicative decrease, then go-back-N: resend everything.
	c.vars.SSThresh = c.vars.CWnd / 2
	if c.vars.SSThresh < 2*MSS {
		c.vars.SSThresh = 2 * MSS
	}
	c.vars.CWnd = MSS
	if c.rtoBackoff < 6 {
		c.rtoBackoff++
	}
	now := c.k().Now()
	for i := range c.outstanding {
		it := &c.outstanding[i]
		it.rtx = true
		it.sent = now
		c.sendSeg(segment{flags: flagDATA | flagACK, seq: it.seq, dlen: it.dlen, wnd: c.vars.RcvWnd}, 0)
		c.vars.RetransSegs++
	}
	c.armRtx()
}

// sendWindow returns the bytes currently allowed in flight.
func (c *Conn) sendWindow() uint32 {
	w := c.vars.SndWnd
	if c.vars.CWnd < w {
		w = c.vars.CWnd
	}
	return w
}

// Send transmits size bytes of synthetic stream data, blocking the proc for
// window space as needed. It returns an error unless the connection is
// established.
func (c *Conn) Send(p *sim.Proc, size int) error {
	for size > 0 {
		if c.vars.State != StateEstablished {
			return fmt.Errorf("rstream: send on %s connection", c.vars.State)
		}
		inFlight := c.vars.SndNxt - c.vars.SndUna
		win := c.sendWindow()
		if inFlight >= win {
			c.sendWaiters.Get(p, -1)
			continue
		}
		chunk := size
		if chunk > MSS {
			chunk = MSS
		}
		if avail := int(win - inFlight); chunk > avail {
			chunk = avail
		}
		seg := segment{flags: flagDATA | flagACK, seq: c.vars.SndNxt, dlen: uint32(chunk), wnd: c.vars.RcvWnd}
		c.outstanding = append(c.outstanding, sendItem{seq: c.vars.SndNxt, dlen: uint32(chunk), sent: c.k().Now()})
		c.vars.SndNxt += uint32(chunk)
		c.sendSeg(seg, 0)
		if !c.rtxTimer.Pending() {
			c.armRtx()
		}
		size -= chunk
	}
	return nil
}

// Flush blocks until every sent byte is acknowledged.
func (c *Conn) Flush(p *sim.Proc, timeout time.Duration) bool {
	deadline := c.k().Now() + timeout
	for c.vars.SndUna != c.vars.SndNxt {
		remain := time.Duration(-1)
		if timeout >= 0 {
			remain = deadline - c.k().Now()
			if remain <= 0 {
				return false
			}
		}
		if _, ok := c.sendWaiters.Get(p, remain); !ok && timeout >= 0 {
			return false
		}
	}
	return true
}

// Recv blocks until a data chunk arrives and returns its length. It returns
// (0, false) on timeout.
func (c *Conn) Recv(p *sim.Proc, timeout time.Duration) (int, bool) {
	return c.recvQ.Get(p, timeout)
}

// Listener accepts stream connections on a well-known port, demultiplexing
// segments to per-peer connections.
type Listener struct {
	node  *netsim.Node
	sock  *netsim.UDPSock
	conns map[connKey]*Conn
	// accepted lists the connections in arrival order, for MIB table walks.
	accepted []*Conn
	backlog  *sim.Queue[*Conn]
}

type connKey struct {
	addr netsim.Addr
	port netsim.Port
}

// Listen binds a listener on node:port and starts its demux proc.
func Listen(node *netsim.Node, port netsim.Port) *Listener {
	l := &Listener{
		node:    node,
		sock:    node.OpenUDP(port),
		conns:   make(map[connKey]*Conn),
		backlog: sim.NewQueue[*Conn](node.Network().K, 0),
	}
	node.Spawn(fmt.Sprintf("rstream-listen-%d", port), func(p *sim.Proc) {
		for {
			pkt, ok := l.sock.Recv(p, -1)
			if !ok {
				return
			}
			l.dispatch(pkt)
		}
	})
	return l
}

func (l *Listener) dispatch(pkt *netsim.Packet) {
	key := connKey{pkt.Src, pkt.SrcPort}
	c, ok := l.conns[key]
	if !ok {
		seg, err := decodeSegment(pkt.Payload)
		if err != nil || seg.flags&flagSYN == 0 {
			return
		}
		c = newConn(l.node, l.sock)
		c.vars.LocalPort = l.sock.Port()
		c.vars.RemoteAddr = pkt.Src
		c.vars.RemotePort = pkt.SrcPort
		c.vars.ISS = 1000
		c.vars.SndUna, c.vars.SndNxt = c.vars.ISS, c.vars.ISS
		c.vars.IRS = seg.seq
		c.vars.RcvNxt = seg.seq + 1
		c.vars.SndWnd = seg.wnd
		c.vars.State = StateSynReceived
		l.conns[key] = c
		l.accepted = append(l.accepted, c)
		c.sendSeg(segment{flags: flagSYN | flagACK, seq: c.vars.ISS, wnd: c.vars.RcvWnd}, 0)
		c.vars.SndNxt++
		c.vars.SndUna = c.vars.ISS // un-acked SYN occupies ISS
		l.backlog.Put(c)
		return
	}
	c.onDatagram(pkt)
}

// Accept blocks until a connection completes its handshake (or the timeout
// elapses) and returns it.
func (l *Listener) Accept(p *sim.Proc, timeout time.Duration) (*Conn, bool) {
	deadline := l.node.Network().K.Now() + timeout
	c, ok := l.backlog.Get(p, timeout)
	if !ok {
		return nil, false
	}
	for c.vars.State == StateSynReceived {
		remain := time.Duration(-1)
		if timeout >= 0 {
			remain = deadline - l.node.Network().K.Now()
			if remain <= 0 {
				return nil, false
			}
		}
		if _, ok := c.connWaiters.Get(p, remain); !ok {
			return nil, false
		}
	}
	return c, true
}

// Conns returns every connection the listener has accepted; the MIB
// tcpConnTable walks this.
func (l *Listener) Conns() []*Conn { return l.accepted }
