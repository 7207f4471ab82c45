package nttcp

import (
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// The client engine and the responder state machine are written once and
// run on two transports. These cases go through both: a kernel with two
// hosts, and 127.0.0.1 sockets. The responder under test is the real state
// machine behind a filter that can ignore chosen requests, which is how a
// lost datagram is staged identically on either side. It sends each reply
// after a one-byte datagram, which both links must skip within the wait.

// outcome is what one case observes: a reachability probe when cfg.Count is
// zero, else a burst measurement.
type outcome struct {
	reached bool
	res     Result
	err     error
}

// junk precedes every reply: too short to be a header.
var junk = []byte{msgResult}

// transportUnderTest runs one client call against a filtered responder.
type transportUnderTest func(t *testing.T, cfg Config, ignore func(header) bool) outcome

func overSim(t *testing.T, cfg Config, ignore func(header) bool) outcome {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	sock := srv.OpenUDP(Port)
	var r responder[simPeer]
	var replyBuf [headerSize]byte
	sock.Consume(func(pkt *netsim.Packet) {
		if h, ok := decodeHeader(pkt.Payload); !ok || ignore(h) {
			return
		}
		if reply, _, ok := r.handle(simPeer{pkt.Src, pkt.SrcPort}, pkt.Payload, pkt.Size, srv.LocalTime()); ok {
			sock.SendCopy(pkt.Src, pkt.SrcPort, junk, len(junk))
			sock.SendCopy(pkt.Src, pkt.SrcPort, reply.put(replyBuf[:0]), headerSize)
		}
	})
	c := NewClient(cli, cfg)
	var out outcome
	cli.Spawn("tester", func(p *sim.Proc) {
		if cfg.Count == 0 {
			out.reached, _ = c.Reachability(p, "server", 0)
		} else {
			out.res, out.err = c.Measure(p, "server", 0)
		}
	})
	k.RunUntil(time.Minute)
	return out
}

func overUDP(t *testing.T, cfg Config, ignore func(header) bool) outcome {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		var r responder[netip.AddrPort]
		buf := make([]byte, 65536)
		start := time.Now()
		for {
			n, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if h, ok := decodeHeader(buf[:n]); !ok || ignore(h) {
				continue
			}
			if reply, _, ok := r.handle(from, buf[:n], n, time.Since(start)); ok {
				conn.WriteToUDPAddrPort(junk, from)
				conn.WriteToUDPAddrPort(reply.put(nil), from)
			}
		}
	}()
	c := NewRealClient(cfg)
	var out outcome
	if cfg.Count == 0 {
		out.reached, _, out.err = c.ReachabilityReal(conn.LocalAddr().String())
	} else {
		out.res, out.err = c.MeasureReal(conn.LocalAddr().String())
	}
	return out
}

func TestConformanceBothTransports(t *testing.T) {
	burst := Config{MsgLen: 512, InterSend: time.Millisecond, Count: 8, Timeout: 150 * time.Millisecond}
	withOffset := burst
	withOffset.ComputeOffset, withOffset.OffsetSamples = true, 3
	ping := Config{Timeout: 150 * time.Millisecond}
	never := func(header) bool { return false }
	ofType := func(typ byte) func(header) bool {
		return func(h header) bool { return h.typ == typ }
	}
	// firstOfType ignores only the first request of that type.
	firstOfType := func(typ byte) func(header) bool {
		seen := false
		return func(h header) bool {
			first := h.typ == typ && !seen
			seen = seen || first
			return first
		}
	}
	wholeBurst := func(t *testing.T, o outcome) {
		if o.err != nil || !o.res.Reached || o.res.Received != 8 || o.res.Loss != 0 {
			t.Fatalf("res = %+v, err = %v", o.res, o.err)
		}
	}
	cases := []struct {
		name   string
		cfg    Config
		ignore func() func(header) bool // built per run: some filters keep state
		check  func(*testing.T, outcome)
	}{
		{"reachability hit", ping, func() func(header) bool { return never }, func(t *testing.T, o outcome) {
			if o.err != nil || !o.reached {
				t.Fatalf("reached = %v, err = %v", o.reached, o.err)
			}
		}},
		{"reachability miss", ping, func() func(header) bool { return ofType(msgEcho) }, func(t *testing.T, o outcome) {
			if o.err != nil || o.reached {
				t.Fatalf("reached = %v, err = %v", o.reached, o.err)
			}
		}},
		{"burst", burst, func() func(header) bool { return never }, func(t *testing.T, o outcome) {
			wholeBurst(t, o)
			// start, ready, 8 data, end, result.
			if o.res.OverheadPackets != 12 || o.res.Offset != 0 {
				t.Fatalf("packets = %d, offset = %v", o.res.OverheadPackets, o.res.Offset)
			}
		}},
		{"burst with offset exchange", withOffset, func() func(header) bool { return never }, func(t *testing.T, o outcome) {
			wholeBurst(t, o)
			// Three probe/reply pairs on top of the plain burst.
			if o.res.OverheadPackets != 18 {
				t.Fatalf("packets = %d, want 18", o.res.OverheadPackets)
			}
			// The offset removes whatever epoch difference the two clocks
			// have, leaving a small transit time.
			if lat := o.res.OneWayLatency; lat < -5*time.Millisecond || lat > 100*time.Millisecond {
				t.Fatalf("corrected latency = %v (offset %v)", lat, o.res.Offset)
			}
		}},
		{"lost end marker recovered by retry", burst, func() func(header) bool { return firstOfType(msgDataEnd) }, func(t *testing.T, o outcome) {
			wholeBurst(t, o)
			if o.res.OverheadPackets != 13 {
				t.Fatalf("packets = %d, want 13 (two end markers)", o.res.OverheadPackets)
			}
		}},
		{"offset probes unanswered", withOffset, func() func(header) bool { return ofType(msgOffsetProbe) }, func(t *testing.T, o outcome) {
			// A latency corrected by nothing is not a measurement: the
			// burst is never sent.
			if o.err == nil || !strings.Contains(o.err.Error(), "offset exchange failed") || o.res.Sent != 0 {
				t.Fatalf("res = %+v, err = %v, want offset exchange failed", o.res, o.err)
			}
		}},
	}
	for name, run := range map[string]transportUnderTest{"sim": overSim, "udp": overUDP} {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				tc.check(t, run(t, tc.cfg, tc.ignore()))
			})
		}
	}
}
