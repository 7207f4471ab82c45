// Package nttcp reimplements the NSWC-DD NTTCP communications analysis tool
// as used by the paper's high-fidelity network resource monitor (§5.1): an
// active measurement engine that sends configurable bursts of messages —
// message length L, inter-send period P, burst count N — between a client
// and a server process and measures end-to-end throughput, one-way latency
// (with either a per-measurement clock-offset exchange or an external sync
// protocol), and reachability, all at the Application & Support layer.
package nttcp

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// Port is the default NTTCP server port.
const Port netsim.Port = 5010

// message types on the control/data channel.
const (
	msgStart byte = iota + 1
	msgReady
	msgData
	msgDataEnd
	msgResult
	msgEcho
	msgEchoReply
	msgOffsetProbe
	msgOffsetReply
)

// header layout: type(1) testID(4) seq(4) t1(8) t2(8) extra(8) = 33 bytes.
const headerSize = 33

type header struct {
	typ    byte
	testID uint32
	seq    uint32
	t1, t2 time.Duration
	extra  uint64
}

// put appends h's wire form, headerSize bytes, to dst.
func (h header) put(dst []byte) []byte {
	dst = append(dst, h.typ)
	dst = binary.BigEndian.AppendUint32(dst, h.testID)
	dst = binary.BigEndian.AppendUint32(dst, h.seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.t1))
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.t2))
	return binary.BigEndian.AppendUint64(dst, h.extra)
}

func decodeHeader(b []byte) (header, bool) {
	if len(b) < headerSize {
		return header{}, false
	}
	return header{
		typ:    b[0],
		testID: binary.BigEndian.Uint32(b[1:5]),
		seq:    binary.BigEndian.Uint32(b[5:9]),
		t1:     time.Duration(binary.BigEndian.Uint64(b[9:17])),
		t2:     time.Duration(binary.BigEndian.Uint64(b[17:25])),
		extra:  binary.BigEndian.Uint64(b[25:33]),
	}, true
}

// Config mirrors the tool's configuration options the paper tunes
// (§5.1.2–5.1.3).
type Config struct {
	// MsgLen is L: the application message length in bytes.
	MsgLen int
	// InterSend is P: the period between successive messages.
	InterSend time.Duration
	// Count is the number of messages per burst; bursts trade
	// intrusiveness against susceptibility to transients.
	Count int
	// Timeout bounds each wait on the network.
	Timeout time.Duration
	// ComputeOffset enables the per-measurement clock-offset exchange; when
	// false, the clocks are taken to agree already (e.g. through NTP) and
	// one-way latency is left uncorrected.
	ComputeOffset bool
	// OffsetSamples is the number of probe exchanges when ComputeOffset.
	OffsetSamples int
}

// withDefaults fills the RTDS-era defaults: L=8192, P=30ms (§5.1.2.1).
func (c Config) withDefaults() Config {
	if c.MsgLen <= 0 {
		c.MsgLen = 8192
	}
	if c.InterSend <= 0 {
		c.InterSend = 30 * time.Millisecond
	}
	if c.Count <= 0 {
		c.Count = 32
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.OffsetSamples <= 0 {
		c.OffsetSamples = 8
	}
	return c
}

// Result is one completed measurement.
type Result struct {
	Reached  bool
	Sent     int
	Received int
	// ThroughputBps is receiver-measured end-to-end throughput.
	ThroughputBps float64
	// OneWayLatency is the offset-corrected mean one-way latency.
	OneWayLatency time.Duration
	// Loss is the fraction of burst messages not delivered.
	Loss float64
	// Elapsed is the wall (virtual) time the whole measurement took,
	// including control and offset traffic — the T of §5.1.2.1.
	Elapsed time.Duration
	// OverheadBytes counts every byte the measurement put on the wire
	// (control, offset, data, result), the intrusiveness currency.
	OverheadBytes int64
	// OverheadPackets counts the packets likewise.
	OverheadPackets int
	// Offset is the clock offset estimate used (zero if none).
	Offset time.Duration
}

type burstState struct {
	received  int
	bytes     int
	firstAt   time.Duration
	lastAt    time.Duration
	sumRawLat time.Duration // sum of (server local recv - client local send)
	expected  int
}

// burstKey identifies a burst by its originating endpoint as well as the
// client's test ID, so concurrent clients cannot collide.
type burstKey[P comparable] struct {
	from   P
	testID uint32
}

// responder is the NTTCP responder's state machine: it echoes probes,
// participates in offset exchanges, and measures incoming bursts, reporting
// receiver-side results. The sim Server and RealServer feed it datagrams;
// P is the transport's own comparable endpoint type, so the burst table
// costs neither a string nor an interface per datagram, and it holds its
// bursts by value, so a measurement costs no allocation once the table has
// grown to the bursts in flight. The zero value is ready to use.
type responder[P comparable] struct {
	bursts map[burstKey[P]]burstState
}

// handle consumes one datagram — size bytes on the wire (a simulated burst
// message is larger than the payload it carries), arrived from a peer at
// local clock time now — and returns the reply to send back, if any. done
// reports a completed burst measurement. It reads payload only through
// decodeHeader and keeps nothing of it, so a caller may reuse the bytes as
// soon as it returns.
func (r *responder[P]) handle(from P, payload []byte, size int, now time.Duration) (reply header, done, ok bool) {
	h, ok := decodeHeader(payload)
	if !ok {
		return header{}, false, false
	}
	key := burstKey[P]{from, h.testID}
	switch h.typ {
	case msgEcho:
		return header{typ: msgEchoReply, testID: h.testID, seq: h.seq, t1: h.t1}, false, true
	case msgOffsetProbe:
		return header{typ: msgOffsetReply, testID: h.testID, seq: h.seq, t1: h.t1, t2: now}, false, true
	case msgStart:
		if r.bursts == nil {
			r.bursts = make(map[burstKey[P]]burstState)
		}
		r.bursts[key] = burstState{expected: int(h.extra)}
		return header{typ: msgReady, testID: h.testID}, false, true
	case msgData:
		if b, ok := r.bursts[key]; ok {
			if b.received == 0 {
				b.firstAt = now
			}
			b.received++
			b.bytes += size
			b.lastAt = now
			b.sumRawLat += now - h.t1
			r.bursts[key] = b
		}
	case msgDataEnd:
		b, ok := r.bursts[key]
		if !ok {
			break
		}
		delete(r.bursts, key)
		span := b.lastAt - b.firstAt
		var bps uint64
		if span > 0 && b.received > 1 {
			// Receiver-side throughput over the arrival span,
			// excluding the first message's bytes (standard
			// inter-arrival accounting).
			bps = uint64(float64(b.bytes-b.bytes/b.received) * 8 / span.Seconds())
		}
		var meanRaw time.Duration
		if b.received > 0 {
			meanRaw = b.sumRawLat / time.Duration(b.received)
		}
		return header{typ: msgResult, testID: h.testID, seq: uint32(b.received), t1: meanRaw, extra: bps}, true, true
	}
	return header{}, false, false
}

// link is all the client engine sees of the network: a datagram endpoint
// pointed at one responder, and its host's two clocks. The engine is
// written once against it; simLink (below) and udpLink (real.go) are the
// two implementations. SNMP needs other things of a transport and has its
// own.
type link interface {
	// send queues h as a datagram of size bytes (at least the header); the
	// link writes the header into a buffer of its own.
	send(h header, size int)
	// recv returns the header of the next well-formed datagram, false after
	// timeout. A datagram too short to decode is skipped within the same
	// timeout, so the engine never sees payload bytes.
	recv(timeout time.Duration) (header, bool)
	// Now times deadlines and elapsed spans; localTime is the host clock
	// stamped into messages, which on a simulated host drifts away from it
	// (what the offset exchange is for).
	Now() time.Duration
	localTime() time.Duration
	Sleep(d time.Duration)
}

// put sends h and charges the datagram to the measurement's overhead.
func put(l link, res *Result, h header, size int) {
	l.send(h, size)
	res.OverheadBytes += int64(size) + netsim.HeaderOverhead
	res.OverheadPackets++
}

// await receives until a typ message of test id — and, when seq >= 0, of
// that sequence number — arrives or timeout passes; any other message is
// skipped without extending the wait. A match is charged to res, if given.
func await(l link, typ byte, id uint32, seq int, timeout time.Duration, res *Result) (header, bool) {
	deadline := l.Now() + timeout
	for {
		remain := deadline - l.Now()
		if remain <= 0 {
			return header{}, false
		}
		h, ok := l.recv(remain)
		if !ok {
			return header{}, false
		}
		if h.typ != typ || h.testID != id || seq >= 0 && h.seq != uint32(seq) {
			continue
		}
		if res != nil {
			res.OverheadBytes += headerSize + netsim.HeaderOverhead
			res.OverheadPackets++
		}
		return h, true
	}
}

// prober is the NTTCP client engine — burst configuration, test-id sequence
// and the measurement procedures — that Client and RealClient embed.
type prober struct {
	Config Config

	testID uint32
}

// reachability sends one echo and reports whether a reply arrived within
// the timeout, with the round-trip time on success.
func (pr *prober) reachability(l link) (bool, time.Duration) {
	pr.testID++
	id := pr.testID
	start := l.Now()
	l.send(header{typ: msgEcho, testID: id, t1: l.localTime()}, headerSize)
	if _, ok := await(l, msgEchoReply, id, -1, pr.Config.Timeout, nil); !ok {
		return false, 0
	}
	return true, l.Now() - start
}

// estimateOffset performs the per-measurement clock-offset exchange the
// paper found "significantly intrusive compared to ... NTP" (§5.1.3).
func (pr *prober) estimateOffset(l link, id uint32, res *Result) (time.Duration, bool) {
	var samples []vclock.Sample
	for i := 0; i < pr.Config.OffsetSamples; i++ {
		put(l, res, header{typ: msgOffsetProbe, testID: id, seq: uint32(i), t1: l.localTime()}, headerSize)
		rh, ok := await(l, msgOffsetReply, id, i, pr.Config.Timeout, res)
		if !ok {
			continue
		}
		t4 := l.localTime()
		samples = append(samples, vclock.Sample{
			Offset: vclock.EstimateOffset(rh.t1, rh.t2, t4),
			RTT:    t4 - rh.t1,
		})
	}
	best, ok := vclock.BestSample(samples)
	return best.Offset, ok
}

// measure runs one burst measurement over l, mimicking the traffic shape
// configured (the RTDS shape by default), and returns the metrics; target
// names the responder in errors.
func (pr *prober) measure(l link, target string) (res Result, err error) {
	cfg := pr.Config
	pr.testID++
	id := pr.testID
	start := l.Now()
	defer func() { res.Elapsed = l.Now() - start }()

	// Control: announce the burst.
	put(l, &res, header{typ: msgStart, testID: id, extra: uint64(cfg.Count)}, headerSize)
	if _, ok := await(l, msgReady, id, -1, cfg.Timeout, &res); !ok {
		return res, fmt.Errorf("nttcp: %s: no response to start", target)
	}
	res.Reached = true

	// Optional clock-offset exchange.
	var offset time.Duration
	if cfg.ComputeOffset {
		est, ok := pr.estimateOffset(l, id, &res)
		if !ok {
			return res, fmt.Errorf("nttcp: %s: offset exchange failed", target)
		}
		offset = est
	}
	res.Offset = offset

	// Data burst: Count messages of MsgLen every InterSend.
	for i := 0; i < cfg.Count; i++ {
		put(l, &res, header{typ: msgData, testID: id, seq: uint32(i), t1: l.localTime()}, cfg.MsgLen)
		res.Sent++
		l.Sleep(cfg.InterSend)
	}
	// End marker and result collection (retry: the end marker itself can
	// be lost under load).
	for attempt := 0; attempt < 3; attempt++ {
		put(l, &res, header{typ: msgDataEnd, testID: id}, headerSize)
		if h, ok := await(l, msgResult, id, -1, cfg.Timeout, &res); ok {
			res.Received = int(h.seq)
			res.ThroughputBps = float64(h.extra)
			rawLat := h.t1
			res.OneWayLatency = rawLat - offset
			if res.Sent > 0 {
				res.Loss = 1 - float64(res.Received)/float64(res.Sent)
			}
			return res, nil
		}
	}
	return res, fmt.Errorf("nttcp: %s: burst result lost", target)
}

// simPeer is a simulated endpoint: the responder's burst-table key and the
// client adapter's destination.
type simPeer struct {
	addr netsim.Addr
	port netsim.Port
}

// Server is the NTTCP responder on a simulated node. It runs no proc: its
// socket takes each datagram in the event that delivers it
// (netsim.UDPSock.Consume), and a reply goes out as a copy of the one
// header buffer the Server keeps (netsim.UDPSock.SendCopy), so a datagram
// costs the responder no allocation.
type Server struct {
	Node *netsim.Node
	Port netsim.Port

	// Tests counts completed burst measurements.
	Tests int

	sock  *netsim.UDPSock
	r     responder[simPeer]
	reply [headerSize]byte
}

// StartServer binds the responder to node:port.
func StartServer(node *netsim.Node, port netsim.Port) *Server {
	if port == 0 {
		port = Port
	}
	s := &Server{Node: node, Port: port, sock: node.OpenUDP(port)}
	s.sock.Consume(s.consume)
	return s
}

// consume answers one datagram. handle keeps nothing of the payload, and
// the reply is copied out of s.reply, so nothing outlives the call.
func (s *Server) consume(pkt *netsim.Packet) {
	reply, done, ok := s.r.handle(simPeer{pkt.Src, pkt.SrcPort}, pkt.Payload, pkt.Size, s.Node.LocalTime())
	if done {
		s.Tests++
	}
	if ok {
		s.sock.SendCopy(pkt.Src, pkt.SrcPort, reply.put(s.reply[:0]), headerSize)
	}
}

// simLink runs the engine on the simulator: the calling proc (whose Now
// and Sleep it promotes), its node's clock, the link's socket and the
// responder it is pointed at. A datagram carries only the header, which the
// network copies out of hdr; a burst message's Size says MsgLen. recv reads
// replies off the socket's own receive queue, decodes each header and gives
// the frame back at once. The link outlives its call (Client.idle), and so
// does its socket, closed between calls and reopened on a fresh port for
// the next.
type simLink struct {
	*sim.Proc
	node *netsim.Node
	sock *netsim.UDPSock
	to   simPeer

	hdr [headerSize]byte
}

func (l *simLink) send(h header, size int) {
	l.sock.SendCopy(l.to.addr, l.to.port, h.put(l.hdr[:0]), size)
}

// recv keeps the decoded header, never the packet. A datagram too short to
// decode is skipped within the same deadline, which is never passed to Recv
// negative, as that would block for good.
func (l *simLink) recv(timeout time.Duration) (header, bool) {
	deadline := l.Now() + timeout
	for remain := timeout; remain >= 0; remain = deadline - l.Now() {
		pkt, ok := l.sock.Recv(l.Proc, remain)
		if !ok {
			break
		}
		h, ok := decodeHeader(pkt.Payload)
		l.sock.Free(pkt)
		if ok {
			return h, true
		}
	}
	return header{}, false
}

func (l *simLink) localTime() time.Duration { return l.node.LocalTime() }

// Client runs measurements from a node toward NTTCP servers.
type Client struct {
	Node *netsim.Node
	prober

	idle []*simLink // adapters between calls
}

// NewClient returns a measurement client on node.
func NewClient(node *netsim.Node, cfg Config) *Client {
	return &Client{Node: node, prober: prober{Config: cfg.withDefaults()}}
}

// dial points an idle adapter at target:port, or a new one if none is
// idle. Several procs can be inside one Client at once (hifi measures paths
// that share a source concurrently), so each call has an adapter of its
// own. An adapter's first call opens its socket; every later call reopens
// it on the next ephemeral port, so the port is new for each call, as an
// OpenUDP(0) per call would make it, and a measurement allocates nothing
// for the seam.
func (c *Client) dial(p *sim.Proc, target netsim.Addr, port netsim.Port) *simLink {
	if port == 0 {
		port = Port
	}
	var l *simLink
	if n := len(c.idle); n > 0 {
		l = c.idle[n-1]
		c.idle = c.idle[:n-1]
		l.sock.Reopen()
	} else {
		l = &simLink{node: c.Node, sock: c.Node.OpenUDP(0)}
	}
	l.Proc, l.to = p, simPeer{target, port}
	return l
}

// hangUp closes the call's socket, so a late reply is dropped as no-port —
// the next call reopens it on another port, so the reply stays dropped —
// and a reply the call did not wait for goes back to the network with the
// socket's queue, so it reaches no later call.
func (c *Client) hangUp(l *simLink) {
	l.sock.Close()
	c.idle = append(c.idle, l)
}

// Reachability sends one echo and reports whether a reply arrived within
// the timeout, with the round-trip time on success.
func (c *Client) Reachability(p *sim.Proc, target netsim.Addr, port netsim.Port) (bool, time.Duration) {
	l := c.dial(p, target, port)
	defer c.hangUp(l)
	return c.reachability(l)
}

// Measure runs one burst measurement against target, mimicking the traffic
// shape configured (the RTDS shape by default) and returns the metrics.
func (c *Client) Measure(p *sim.Proc, target netsim.Addr, port netsim.Port) (Result, error) {
	l := c.dial(p, target, port)
	defer c.hangUp(l)
	return c.measure(l, string(target))
}

// PeakOverheadBps returns the offered load of one active measurement with
// this configuration: (L+headers)·8/P — the per-path term of the paper's
// C·S·(L/P) formula.
func PeakOverheadBps(cfg Config) float64 {
	cfg = cfg.withDefaults()
	return float64(cfg.MsgLen) * 8 / cfg.InterSend.Seconds()
}
