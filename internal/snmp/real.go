package snmp

import (
	"net"
	"time"

	"repro/internal/mib"
)

// This file is the package's real-UDP face and holds no protocol logic: the
// agent's and the trap listener's socket loops, and udpConn, which runs the
// manager engine of client.go on a real socket. It makes cmd/snmpd and
// cmd/snmpget genuine SNMP tools (they interoperate at the BER level with
// the covered v1/v2c subset), and only here may the package read the wall
// clock.

// ServeUDP runs the agent on a real UDP socket until the socket closes.
func (a *Agent) ServeUDP(conn *net.UDPConn) error {
	buf := make([]byte, 65536)
	for {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		if resp := a.handle(buf[:n]); resp != nil {
			conn.WriteToUDP(resp, from)
		}
	}
}

// udpConn is the engine's conn over a real socket connected to one agent.
// It owns the receive buffer: Unmarshal copies what it keeps.
type udpConn struct {
	c     *net.UDPConn
	buf   []byte
	start time.Time
}

func (u *udpConn) send(b []byte) error {
	_, err := u.c.Write(b)
	return err
}

func (u *udpConn) recv(timeout time.Duration) ([]byte, bool) {
	u.c.SetReadDeadline(time.Now().Add(timeout))
	n, err := u.c.Read(u.buf)
	if err != nil {
		return nil, false
	}
	return u.buf[:n], true
}

func (u *udpConn) done() {}

func (u *udpConn) Now() time.Duration    { return time.Since(u.start) }
func (u *udpConn) Sleep(d time.Duration) { time.Sleep(d) }

// RealClient is a manager endpoint over real UDP: the same engine as
// Client, on a socket dialled per operation.
type RealClient struct {
	manager
}

// NewRealClient returns a client with sane defaults.
func NewRealClient(community string) *RealClient {
	return &RealClient{manager{Community: community, Version: V2c, Timeout: 2 * time.Second, Retries: 1}}
}

// over runs op on a socket connected to agent.
func (c *RealClient) over(agent string, op func(conn) ([]VarBind, error)) ([]VarBind, error) {
	ua, err := net.ResolveUDPAddr("udp", agent)
	if err != nil {
		return nil, err
	}
	uc, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	defer uc.Close()
	return op(&udpConn{c: uc, buf: make([]byte, 65536), start: time.Now()})
}

// Get fetches exact OIDs. The binds are valid until the client's next
// request, as Client.Get's are.
func (c *RealClient) Get(agent string, oids ...mib.OID) ([]VarBind, error) {
	return c.over(agent, func(t conn) ([]VarBind, error) { return c.read(t, GetRequest, oids...) })
}

// GetNext fetches lexicographic successors, valid as Get's binds are.
func (c *RealClient) GetNext(agent string, oids ...mib.OID) ([]VarBind, error) {
	return c.over(agent, func(t conn) ([]VarBind, error) { return c.read(t, GetNextRequest, oids...) })
}

// Set writes values.
func (c *RealClient) Set(agent string, binds ...VarBind) error {
	_, err := c.over(agent, func(t conn) ([]VarBind, error) { return c.exchange(t, SetRequest, binds) })
	return err
}

// Walk retrieves every object under prefix.
func (c *RealClient) Walk(agent string, prefix mib.OID) ([]VarBind, error) {
	return c.over(agent, func(t conn) ([]VarBind, error) { return c.walk(t, prefix) })
}

// ListenTraps receives traps on a real UDP socket, invoking fn per trap,
// until the socket closes.
func ListenTraps(conn *net.UDPConn, fn func(*Message, *net.UDPAddr)) error {
	buf := make([]byte, 65536)
	for {
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			return err
		}
		msg, derr := Decode(buf[:n])
		if derr != nil || (msg.PDU.Type != TrapV1 && msg.PDU.Type != TrapV2) {
			continue
		}
		fn(msg, from)
	}
}
