package rstream

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// fixture builds client and server hosts joined by the given medium config.
func fixture(t testing.TB, cfg netsim.MediumConfig) (*sim.Kernel, *netsim.Node, *netsim.Node) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 11)
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(srv)
	seg.Attach(cli)
	return k, srv, cli
}

func TestHandshake(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	l := Listen(srv, 5000)
	var clientConn, serverConn *Conn
	cli.Spawn("dialer", func(p *sim.Proc) {
		c, err := Dial(p, cli, "server", 5000, time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		clientConn = c
	})
	srv.Spawn("acceptor", func(p *sim.Proc) {
		c, ok := l.Accept(p, time.Second)
		if ok {
			serverConn = c
		}
	})
	k.RunUntil(2 * time.Second)
	if clientConn == nil || serverConn == nil {
		t.Fatal("handshake did not complete")
	}
	if clientConn.vars.State != StateEstablished || serverConn.vars.State != StateEstablished {
		t.Fatalf("states: %v / %v", clientConn.vars.State, serverConn.vars.State)
	}
	if serverConn.vars.RemoteAddr != "client" {
		t.Fatalf("server sees peer %q", serverConn.vars.RemoteAddr)
	}
}

func TestDialTimeout(t *testing.T) {
	k, _, cli := fixture(t, netsim.Ethernet10())
	var err error
	done := false
	cli.Spawn("dialer", func(p *sim.Proc) {
		_, err = Dial(p, cli, "server", 5999, 200*time.Millisecond) // nobody listening
		done = true
	})
	k.RunUntil(time.Second)
	if !done || err == nil {
		t.Fatal("dial to closed port did not fail")
	}
}

// transfer pushes total bytes from client to server and returns the bytes
// the server received plus the elapsed virtual time.
func transfer(t *testing.T, cfg netsim.MediumConfig, total int) (int, time.Duration) {
	t.Helper()
	k, srv, cli := fixture(t, cfg)
	l := Listen(srv, 5000)
	received := 0
	var doneAt time.Duration
	srv.Spawn("acceptor", func(p *sim.Proc) {
		c, ok := l.Accept(p, 5*time.Second)
		if !ok {
			return
		}
		for received < total {
			n, ok := c.Recv(p, 30*time.Second)
			if !ok {
				return
			}
			received += n
		}
		doneAt = p.Now()
	})
	cli.Spawn("sender", func(p *sim.Proc) {
		c, err := Dial(p, cli, "server", 5000, 5*time.Second)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Send(p, total)
		c.Flush(p, 60*time.Second)
	})
	k.RunUntil(120 * time.Second)
	return received, doneAt
}

func TestBulkTransferLossless(t *testing.T) {
	total := 1 << 20 // 1 MiB
	got, at := transfer(t, netsim.Ethernet10(), total)
	if got != total {
		t.Fatalf("received %d of %d bytes", got, total)
	}
	// 1 MiB over 10 Mb/s is at least 0.84s; with headers/acks expect ~1s,
	// and it must certainly finish within the window above.
	if at < 800*time.Millisecond {
		t.Fatalf("transfer finished impossibly fast: %v", at)
	}
	gbps := float64(total*8) / at.Seconds()
	if gbps > 10_000_000 {
		t.Fatalf("goodput %.0f b/s exceeds the 10 Mb/s wire", gbps)
	}
}

func TestBulkTransferLossy(t *testing.T) {
	cfg := netsim.Ethernet10()
	cfg.LossProb = 0.02
	total := 256 << 10
	got, _ := transfer(t, cfg, total)
	if got != total {
		t.Fatalf("lossy transfer delivered %d of %d bytes", got, total)
	}
}

func TestRetransmissionCounters(t *testing.T) {
	cfg := netsim.Ethernet10()
	cfg.LossProb = 0.05
	k, srv, cli := fixture(t, cfg)
	l := Listen(srv, 5000)
	srv.Spawn("acceptor", func(p *sim.Proc) {
		c, ok := l.Accept(p, 5*time.Second)
		if !ok {
			return
		}
		for {
			if _, ok := c.Recv(p, 30*time.Second); !ok {
				return
			}
		}
	})
	var vars StateVars
	cli.Spawn("sender", func(p *sim.Proc) {
		c, err := Dial(p, cli, "server", 5000, 5*time.Second)
		if err != nil {
			return
		}
		c.Send(p, 512<<10)
		c.Flush(p, 120*time.Second)
		vars = c.Vars()
	})
	k.RunUntil(240 * time.Second)
	if vars.RetransSegs == 0 {
		t.Fatal("5% loss produced zero retransmissions")
	}
	// BytesOut counts wire bytes, so retransmissions push it above the
	// application total.
	if vars.SegsOut == 0 || vars.BytesOut < 512<<10 {
		t.Fatalf("vars = %+v", vars)
	}
}

func TestRTTEstimation(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	l := Listen(srv, 5000)
	srv.Spawn("acceptor", func(p *sim.Proc) {
		c, ok := l.Accept(p, 5*time.Second)
		if !ok {
			return
		}
		for {
			if _, ok := c.Recv(p, 10*time.Second); !ok {
				return
			}
		}
	})
	var srtt, rto time.Duration
	cli.Spawn("sender", func(p *sim.Proc) {
		c, err := Dial(p, cli, "server", 5000, 5*time.Second)
		if err != nil {
			return
		}
		for i := 0; i < 20; i++ {
			c.Send(p, 1000)
			p.Sleep(50 * time.Millisecond)
		}
		srtt, rto = c.Vars().SRTT, c.Vars().RTO
	})
	k.RunUntil(10 * time.Second)
	if srtt <= 0 {
		t.Fatal("SRTT not estimated")
	}
	if srtt > 10*time.Millisecond {
		t.Fatalf("SRTT %v implausibly large for an idle LAN", srtt)
	}
	if rto < 10*time.Millisecond {
		t.Fatalf("RTO %v below floor", rto)
	}
}

func TestStateVarsCountMatchesPaper(t *testing.T) {
	// The paper (citing Stallings p.111) says a TCP connection has 22
	// state variables of which the standard MIB exchanges 5. StateVars
	// must stay in sync with that claim.
	if NumStateVars != 22 || NumMIBVars != 5 {
		t.Fatal("state variable constants drifted from the paper's claim")
	}
	n := len(fieldNames())
	if n != NumStateVars {
		t.Fatalf("StateVars has %d fields, want %d", n, NumStateVars)
	}
}

func TestMultipleConnsPerListener(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	l := Listen(srv, 5000)
	srv.Spawn("acceptor", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			c, ok := l.Accept(p, 5*time.Second)
			if !ok {
				return
			}
			conn := c
			srv.Spawn("echo", func(ep *sim.Proc) {
				c := conn
				for {
					n, ok := c.Recv(ep, 10*time.Second)
					if !ok {
						return
					}
					c.Send(ep, n)
				}
			})
		}
	})
	echoed := 0
	for i := 0; i < 3; i++ {
		cli.Spawn("dialer", func(p *sim.Proc) {
			c, err := Dial(p, cli, "server", 5000, 5*time.Second)
			if err != nil {
				return
			}
			c.Send(p, 500)
			if n, ok := c.Recv(p, 10*time.Second); ok && n == 500 {
				echoed++
			}
		})
	}
	k.RunUntil(60 * time.Second)
	if echoed != 3 {
		t.Fatalf("echoed on %d of 3 connections", echoed)
	}
	if len(l.Conns()) != 3 {
		t.Fatalf("listener tracked %d conns", len(l.Conns()))
	}
}

// segmentPeer binds a consumer socket on n that decodes every segment it is
// sent into *got and passes it to answer, if set.
func segmentPeer(n *netsim.Node, port netsim.Port, got *[]segment, answer func(*netsim.UDPSock, *netsim.Packet, segment)) *netsim.UDPSock {
	sock := n.OpenUDP(port)
	sock.Consume(func(pkt *netsim.Packet) {
		seg, err := decodeSegment(pkt.Payload)
		if err != nil {
			return
		}
		*got = append(*got, seg)
		if answer != nil {
			answer(sock, pkt, seg)
		}
	})
	return sock
}

// TestListenerRunsNoProc: a listener demultiplexes from kernel events; a
// handshake and a data segment sent from a consumer socket are answered and
// take the accepted connection to established, with no proc switched into.
func TestListenerRunsNoProc(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	l := Listen(srv, 5000)
	var got []segment
	peer := segmentPeer(cli, 0, &got, nil)
	send := func(seg segment) {
		peer.SendProto("server", 5000, seg.encode(), headerSize+int(seg.dlen), netsim.RDP)
		k.Run()
	}
	send(segment{flags: flagSYN, seq: 1, wnd: 64 * MSS})
	if len(got) != 1 || got[0].flags != flagSYN|flagACK || got[0].ack != 2 {
		t.Fatalf("answers to a SYN: %+v, want one SYN|ACK acking 2", got)
	}
	send(segment{flags: flagACK, seq: 2, ack: got[0].seq + 1, wnd: 64 * MSS})
	send(segment{flags: flagDATA | flagACK, seq: 2, ack: got[0].seq + 1, wnd: 64 * MSS, dlen: 100})
	conns := l.Conns()
	if len(conns) != 1 || conns[0].vars.State != StateEstablished || conns[0].vars.RcvNxt != 102 {
		t.Fatalf("accepted %d connections, first %+v; want one established at 102", len(conns), conns[0].vars)
	}
	if len(got) != 2 || got[1].ack != 102 {
		t.Fatalf("answers %+v, want the data acked at 102", got)
	}
	if n := k.ProcSwitches(); n != 0 {
		t.Errorf("the listener switched into a proc %d times, want 0", n)
	}
}

// TestDialledConnRunsNoProc: a dialled connection takes its segments in
// kernel events; once the dialling proc has its connection, a data segment
// from the consumer socket it dialled is taken and acked with no further
// proc switch.
func TestDialledConnRunsNoProc(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	var got []segment
	segmentPeer(srv, 5000, &got, func(sock *netsim.UDPSock, pkt *netsim.Packet, seg segment) {
		if seg.flags&flagSYN != 0 {
			synAck := segment{flags: flagSYN | flagACK, seq: 1000, ack: seg.seq + 1, wnd: 64 * MSS}
			sock.SendProto(pkt.Src, pkt.SrcPort, synAck.encode(), headerSize, netsim.RDP)
		}
	})
	var c *Conn
	cli.Spawn("dialer", func(p *sim.Proc) {
		var err error
		if c, err = Dial(p, cli, "server", 5000, time.Second); err != nil {
			t.Errorf("dial: %v", err)
		}
	})
	k.Run()
	if c == nil || c.vars.State != StateEstablished {
		t.Fatal("handshake did not complete")
	}
	switches := k.ProcSwitches()
	data := segment{flags: flagDATA | flagACK, seq: 1001, ack: 2, wnd: 64 * MSS, dlen: 100}
	srv.OpenUDP(0).SendProto("client", c.vars.LocalPort, data.encode(), headerSize+100, netsim.RDP)
	k.Run()
	if c.vars.RcvNxt != 1101 || c.recvQ.Len() != 1 {
		t.Fatalf("RcvNxt %d with %d chunks queued, want 1101 and 1", c.vars.RcvNxt, c.recvQ.Len())
	}
	if last := got[len(got)-1]; last.flags != flagACK || last.ack != 1101 {
		t.Fatalf("last segment the peer got: %+v, want an ACK of 1101", last)
	}
	if n := k.ProcSwitches() - switches; n != 0 {
		t.Errorf("taking a segment switched into a proc %d times, want 0", n)
	}
}
