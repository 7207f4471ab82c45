package nttcp

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// This file carries the tool's real-network face: the same NTTCP protocol
// (start/ready, optional offset exchange, data burst, result) over actual
// UDP sockets, so cmd/nttcp can be used as a standalone analysis tool on a
// real host exactly like the original.

// RealServer is the responder over real UDP.
type RealServer struct {
	conn  *net.UDPConn
	tests atomic.Int64
}

// ListenReal binds the responder to a real UDP address like ":5010".
func ListenReal(addr string) (*RealServer, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	return &RealServer{conn: conn}, nil
}

// Addr returns the bound address.
func (s *RealServer) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the server.
func (s *RealServer) Close() error { return s.conn.Close() }

// Serve processes requests until the connection closes. Burst payloads on
// the real network carry their nominal length, so a long burst moves real
// bytes.
func (s *RealServer) Serve() error {
	type realKey struct {
		addr   string
		testID uint32
	}
	bursts := make(map[realKey]*burstState)
	buf := make([]byte, 65536)
	start := time.Now()
	localNow := func() time.Duration { return time.Since(start) }
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		h, ok := decodeHeader(buf[:n])
		if !ok {
			continue
		}
		key := realKey{from.String(), h.testID}
		reply := func(rh header) { s.conn.WriteToUDP(rh.encode(), from) }
		switch h.typ {
		case msgEcho:
			reply(header{typ: msgEchoReply, testID: h.testID, seq: h.seq, t1: h.t1})
		case msgOffsetProbe:
			reply(header{typ: msgOffsetReply, testID: h.testID, seq: h.seq, t1: h.t1, t2: localNow()})
		case msgStart:
			bursts[key] = &burstState{expected: int(h.extra)}
			reply(header{typ: msgReady, testID: h.testID})
		case msgData:
			b := bursts[key]
			if b == nil {
				continue
			}
			now := localNow()
			if b.received == 0 {
				b.firstAt = now
			}
			b.received++
			b.bytes += n
			b.lastAt = now
			b.sumRawLat += now - h.t1
		case msgDataEnd:
			b := bursts[key]
			if b == nil {
				continue
			}
			delete(bursts, key)
			s.tests.Add(1)
			span := b.lastAt - b.firstAt
			var bps uint64
			if span > 0 && b.received > 1 {
				bps = uint64(float64(b.bytes-b.bytes/b.received) * 8 / span.Seconds())
			}
			var meanRaw time.Duration
			if b.received > 0 {
				meanRaw = b.sumRawLat / time.Duration(b.received)
			}
			reply(header{typ: msgResult, testID: h.testID, seq: uint32(b.received), t1: meanRaw, extra: bps})
		}
	}
}

// RealClient runs measurements over real UDP.
type RealClient struct {
	Config Config

	start  time.Time
	testID uint32
}

// NewRealClient returns a client with the given burst configuration.
func NewRealClient(cfg Config) *RealClient {
	return &RealClient{Config: cfg.withDefaults(), start: time.Now()}
}

func (c *RealClient) localNow() time.Duration { return time.Since(c.start) }

// MeasureReal runs one burst measurement against a real server address.
func (c *RealClient) MeasureReal(target string) (Result, error) {
	var res Result
	cfg := c.Config
	ua, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return res, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	c.testID++
	id := c.testID
	begin := time.Now()
	defer func() { res.Elapsed = time.Since(begin) }()

	send := func(h header, pad int) {
		b := h.encode()
		if pad > len(b) {
			padded := make([]byte, pad)
			copy(padded, b)
			b = padded
		}
		conn.Write(b)
		res.OverheadBytes += int64(len(b)) + 28
		res.OverheadPackets++
	}
	await := func(typ byte) (header, bool) {
		buf := make([]byte, 65536)
		deadline := time.Now().Add(cfg.Timeout)
		conn.SetReadDeadline(deadline)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return header{}, false
			}
			h, ok := decodeHeader(buf[:n])
			if ok && h.typ == typ && h.testID == id {
				res.OverheadBytes += int64(n) + 28
				res.OverheadPackets++
				return h, true
			}
		}
	}

	send(header{typ: msgStart, testID: id, extra: uint64(cfg.Count)}, 0)
	if _, ok := await(msgReady); !ok {
		return res, fmt.Errorf("nttcp: %s: no response to start", target)
	}
	res.Reached = true

	offset := cfg.KnownOffset
	if cfg.ComputeOffset {
		var best header
		bestRTT := time.Duration(-1)
		for i := 0; i < cfg.OffsetSamples; i++ {
			send(header{typ: msgOffsetProbe, testID: id, seq: uint32(i), t1: c.localNow()}, 0)
			h, ok := await(msgOffsetReply)
			if !ok {
				continue
			}
			t4 := c.localNow()
			if rtt := t4 - h.t1; bestRTT < 0 || rtt < bestRTT {
				bestRTT = rtt
				best = h
				best.extra = uint64(t4)
			}
		}
		if bestRTT >= 0 {
			t4 := time.Duration(best.extra)
			offset = best.t2 - (best.t1+t4)/2
		}
	}
	res.Offset = offset

	for i := 0; i < cfg.Count; i++ {
		send(header{typ: msgData, testID: id, seq: uint32(i), t1: c.localNow()}, cfg.MsgLen)
		res.Sent++
		time.Sleep(cfg.InterSend)
	}
	for attempt := 0; attempt < 3; attempt++ {
		send(header{typ: msgDataEnd, testID: id}, 0)
		if h, ok := await(msgResult); ok {
			res.Received = int(h.seq)
			res.ThroughputBps = float64(h.extra)
			res.OneWayLatency = h.t1 - offset
			if res.Sent > 0 {
				res.Loss = 1 - float64(res.Received)/float64(res.Sent)
			}
			return res, nil
		}
	}
	return res, fmt.Errorf("nttcp: %s: burst result lost", target)
}

// ReachabilityReal sends one echo over real UDP.
func (c *RealClient) ReachabilityReal(target string) (bool, time.Duration, error) {
	ua, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return false, 0, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return false, 0, err
	}
	defer conn.Close()
	c.testID++
	id := c.testID
	start := time.Now()
	conn.Write(header{typ: msgEcho, testID: id, t1: c.localNow()}.encode())
	buf := make([]byte, 1500)
	conn.SetReadDeadline(time.Now().Add(c.Config.Timeout))
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return false, 0, nil
		}
		if h, ok := decodeHeader(buf[:n]); ok && h.typ == msgEchoReply && h.testID == id {
			return true, time.Since(start), nil
		}
	}
}
