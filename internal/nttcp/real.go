package nttcp

import (
	"net"
	"net/netip"
	"sync/atomic"
	"time"
)

// This file is the tool's real-network face and holds no protocol logic:
// the responder's socket loop, and udpLink, which runs the client engine of
// nttcp.go on a real socket, so cmd/nttcp can be used as a standalone
// analysis tool on a real host exactly like the original. Only here may the
// package read the wall clock.

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
// bytes. Replies are written from one header array.
func (s *RealServer) Serve() error {
	var r responder[netip.AddrPort]
	var out [headerSize]byte
	buf := make([]byte, 65536)
	start := time.Now()
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return err
		}
		reply, done, ok := r.handle(from, buf[:n], n, time.Since(start))
		if done {
			s.tests.Add(1)
		}
		if ok {
			s.conn.WriteToUDPAddrPort(reply.put(out[:0]), from)
		}
	}
}

// udpLink is the engine's link over a real socket connected to one
// responder. Timer and host clock are the same wall clock, read as time
// since the client's epoch; the receive and send buffers last the call.
type udpLink struct {
	c     *net.UDPConn
	epoch time.Time
	buf   []byte
	// out is the send buffer: each datagram writes only its header, so
	// the bytes past headerSize stay the zeroed padding of a burst message.
	out []byte
}

func (u *udpLink) send(h header, size int) {
	size = max(size, headerSize)
	if len(u.out) < size {
		u.out = make([]byte, size)
	}
	h.put(u.out[:0])
	// A datagram the socket refuses is a lost datagram: the await that
	// follows times out.
	u.c.Write(u.out[:size])
}

func (u *udpLink) recv(timeout time.Duration) (header, bool) {
	u.c.SetReadDeadline(time.Now().Add(timeout))
	for {
		n, err := u.c.Read(u.buf)
		if err != nil {
			return header{}, false
		}
		if h, ok := decodeHeader(u.buf[:n]); ok {
			return h, true
		}
	}
}

func (u *udpLink) Now() time.Duration       { return time.Since(u.epoch) }
func (u *udpLink) localTime() time.Duration { return time.Since(u.epoch) }
func (u *udpLink) Sleep(d time.Duration)    { time.Sleep(d) }

// RealClient runs measurements over real UDP: the same engine as Client,
// on a socket dialled per call.
type RealClient struct {
	prober

	start time.Time
}

// NewRealClient returns a client with the given burst configuration.
func NewRealClient(cfg Config) *RealClient {
	return &RealClient{prober: prober{Config: cfg.withDefaults()}, start: time.Now()}
}

func (c *RealClient) dial(target string) (*udpLink, error) {
	ua, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	return &udpLink{c: conn, epoch: c.start, buf: make([]byte, 65536)}, nil
}

// MeasureReal runs one burst measurement against a real server address.
func (c *RealClient) MeasureReal(target string) (Result, error) {
	l, err := c.dial(target)
	if err != nil {
		return Result{}, err
	}
	defer l.c.Close()
	return c.measure(l, target)
}

// ReachabilityReal sends one echo over real UDP.
func (c *RealClient) ReachabilityReal(target string) (bool, time.Duration, error) {
	l, err := c.dial(target)
	if err != nil {
		return false, 0, err
	}
	defer l.c.Close()
	ok, rtt := c.reachability(l)
	return ok, rtt, nil
}
