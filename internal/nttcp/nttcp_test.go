package nttcp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vclock"
)

func fixture(t testing.TB, cfg netsim.MediumConfig) (*sim.Kernel, *netsim.Node, *netsim.Node) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 41)
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(srv)
	seg.Attach(cli)
	return k, srv, cli
}

func TestReachabilityUpAndDown(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	StartServer(srv, 0)
	c := NewClient(cli, Config{Timeout: 200 * time.Millisecond})
	var up, down bool
	var rtt time.Duration
	cli.Spawn("tester", func(p *sim.Proc) {
		up, rtt = c.Reachability(p, "server", 0)
		srv.SetUp(false)
		down, _ = c.Reachability(p, "server", 0)
	})
	k.RunUntil(5 * time.Second)
	if !up || down {
		t.Fatalf("reachability: up=%v down=%v", up, down)
	}
	if rtt <= 0 || rtt > 10*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

// TestStartServerOwnsOnePort: a responder binds its own port and nothing
// else, so responders on adjacent ports of one host coexist.
func TestStartServerOwnsOnePort(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	StartServer(srv, 5010)
	StartServer(srv, 5011)
	c := NewClient(cli, Config{MsgLen: 1000, InterSend: 10 * time.Millisecond, Count: 4})
	errs := map[netsim.Port]error{}
	cli.Spawn("tester", func(p *sim.Proc) {
		for _, port := range []netsim.Port{5010, 5011} {
			_, errs[port] = c.Measure(p, "server", port)
		}
	})
	k.RunUntil(10 * time.Second)
	for _, port := range []netsim.Port{5010, 5011} {
		if err, ran := errs[port]; !ran || err != nil {
			t.Fatalf("port %d: ran=%v err=%v", port, ran, err)
		}
	}
}

func TestMeasureThroughputMatchesOfferedRate(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	StartServer(srv, 0)
	// 8192B / 30ms = 2.18 Mb/s offered, well under the 10 Mb/s wire: the
	// receiver should measure ≈ the offered application rate.
	c := NewClient(cli, Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 32})
	var res Result
	var err error
	cli.Spawn("tester", func(p *sim.Proc) {
		res, err = c.Measure(p, "server", 0)
	})
	k.RunUntil(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached || res.Received != 32 || res.Loss != 0 {
		t.Fatalf("res = %+v", res)
	}
	offered := PeakOverheadBps(c.Config)
	if rel := res.ThroughputBps/offered - 1; rel < -0.05 || rel > 0.05 {
		t.Fatalf("throughput %.0f vs offered %.0f (rel %.3f)", res.ThroughputBps, offered, rel)
	}
}

func TestMeasureLatencyWithPerfectClocks(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	StartServer(srv, 0)
	c := NewClient(cli, Config{MsgLen: 1000, InterSend: 10 * time.Millisecond, Count: 16})
	var res Result
	cli.Spawn("tester", func(p *sim.Proc) {
		res, _ = c.Measure(p, "server", 0)
	})
	k.RunUntil(10 * time.Second)
	// Physics: 1028+38 bytes at 10 Mb/s ≈ 853µs tx + arb + prop.
	if res.OneWayLatency < 500*time.Microsecond || res.OneWayLatency > 2*time.Millisecond {
		t.Fatalf("one-way latency = %v", res.OneWayLatency)
	}
}

func TestMeasureLatencyWithSkewedClockAndOffsetExchange(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	srv.LocalClock = &vclock.Clock{Offset: 500 * time.Millisecond}
	StartServer(srv, 0)
	c := NewClient(cli, Config{MsgLen: 1000, InterSend: 10 * time.Millisecond, Count: 16, ComputeOffset: true})
	var res Result
	var err error
	cli.Spawn("tester", func(p *sim.Proc) {
		res, err = c.Measure(p, "server", 0)
	})
	k.RunUntil(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Without correction the raw latency would be ~500ms; with the offset
	// exchange it must be back at wire physics.
	if res.OneWayLatency < 0 || res.OneWayLatency > 5*time.Millisecond {
		t.Fatalf("corrected latency = %v (offset %v)", res.OneWayLatency, res.Offset)
	}
	if res.Offset < 490*time.Millisecond || res.Offset > 510*time.Millisecond {
		t.Fatalf("offset estimate = %v, want ≈500ms", res.Offset)
	}
}

func TestOffsetExchangeCostsMorePackets(t *testing.T) {
	// The §5.1.3 tradeoff: ComputeOffset adds 2·OffsetSamples packets per
	// measurement versus the synchronised-clocks (NTP) variant.
	k, srv, cli := fixture(t, netsim.Ethernet10())
	StartServer(srv, 0)
	withWithout := [2]Result{}
	for i, compute := range []bool{false, true} {
		c := NewClient(cli, Config{MsgLen: 100, InterSend: time.Millisecond, Count: 4, ComputeOffset: compute, OffsetSamples: 8})
		i := i
		c2 := c
		cli.Spawn("tester", func(p *sim.Proc) {
			res, err := c2.Measure(p, "server", 0)
			if err == nil {
				withWithout[i] = res
			}
		})
	}
	k.RunUntil(30 * time.Second)
	extra := withWithout[1].OverheadPackets - withWithout[0].OverheadPackets
	if extra != 16 {
		t.Fatalf("offset exchange added %d packets, want 16", extra)
	}
}

func TestMeasureDetectsLoss(t *testing.T) {
	cfg := netsim.Ethernet10()
	cfg.LossProb = 0.2
	k, srv, cli := fixture(t, cfg)
	StartServer(srv, 0)
	c := NewClient(cli, Config{MsgLen: 1000, InterSend: time.Millisecond, Count: 100, Timeout: time.Second})
	var res Result
	var err error
	cli.Spawn("tester", func(p *sim.Proc) {
		res, err = c.Measure(p, "server", 0)
	})
	k.RunUntil(60 * time.Second)
	if err != nil {
		// The start/result control packets themselves may be lost at 20%;
		// accept reported unreachability but not a false success.
		t.Skipf("control traffic lost on 20%% lossy LAN: %v", err)
	}
	if res.Loss < 0.05 || res.Loss > 0.5 {
		t.Fatalf("loss = %.3f, want ≈0.2", res.Loss)
	}
}

func TestMeasureUnreachableTarget(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	StartServer(srv, 0)
	srv.SetUp(false)
	c := NewClient(cli, Config{Timeout: 100 * time.Millisecond})
	var res Result
	var err error
	cli.Spawn("tester", func(p *sim.Proc) {
		res, err = c.Measure(p, "server", 0)
	})
	k.RunUntil(10 * time.Second)
	if err == nil || res.Reached {
		t.Fatalf("measurement against dead server: res=%+v err=%v", res, err)
	}
}

func TestBurstOverheadAccounting(t *testing.T) {
	k, srv, cli := fixture(t, netsim.Ethernet10())
	StartServer(srv, 0)
	c := NewClient(cli, Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 10})
	var res Result
	cli.Spawn("tester", func(p *sim.Proc) {
		res, _ = c.Measure(p, "server", 0)
	})
	k.RunUntil(10 * time.Second)
	// At least the 10 data messages' bytes must be accounted.
	if res.OverheadBytes < 10*8192 {
		t.Fatalf("overhead bytes = %d", res.OverheadBytes)
	}
	if res.OverheadPackets < 12 { // start + ready + 10 data
		t.Fatalf("overhead packets = %d", res.OverheadPackets)
	}
	if res.Elapsed < 300*time.Millisecond {
		t.Fatalf("elapsed = %v, want >= 10x30ms", res.Elapsed)
	}
}

func TestPeakOverheadMatchesPaperFormula(t *testing.T) {
	// §5.1.2.1: (8192 bytes / .03 s) * 8 bits = 2.18 Mb/s per path.
	bps := PeakOverheadBps(Config{MsgLen: 8192, InterSend: 30 * time.Millisecond})
	if bps < 2.17e6 || bps > 2.19e6 {
		t.Fatalf("per-path overhead = %.0f, want ≈2.18e6", bps)
	}
	// And 27 simultaneous paths ≈ 59 Mb/s.
	if total := 27 * bps; total < 58e6 || total > 60e6 {
		t.Fatalf("27-path overhead = %.0f, want ≈59e6", total)
	}
}

func TestConcurrentMeasurementsDistinctTestIDs(t *testing.T) {
	// Two servers, two overlapping measurements from one client node: the
	// testID demultiplexes them.
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 5)
	cli := nw.NewHost("client")
	s1 := nw.NewHost("s1")
	s2 := nw.NewHost("s2")
	seg := nw.NewSegment("lan", netsim.FDDI())
	seg.Attach(cli)
	seg.Attach(s1)
	seg.Attach(s2)
	StartServer(s1, 0)
	StartServer(s2, 0)
	okCount := 0
	for _, target := range []netsim.Addr{"s1", "s2"} {
		target := target
		c := NewClient(cli, Config{MsgLen: 2000, InterSend: 5 * time.Millisecond, Count: 20})
		cli.Spawn("m", func(p *sim.Proc) {
			if res, err := c.Measure(p, target, 0); err == nil && res.Received == 20 {
				okCount++
			}
		})
	}
	k.RunUntil(30 * time.Second)
	if okCount != 2 {
		t.Fatalf("concurrent measurements ok = %d, want 2", okCount)
	}
}

// TestMeasureAllocatesNothingPerMessage: once warm, a simulated Measure
// allocates nothing at 8 and at 64 burst messages — the client sends each
// header as a network-owned copy and gives each reply's frame back as it
// reads it, the responder runs no proc, and the client's adapter keeps its
// socket, which each call reopens on a fresh port (netsim.UDPSock.Reopen).
func TestMeasureAllocatesNothingPerMessage(t *testing.T) {
	const period = time.Second
	perMeasure := func(count int) float64 {
		k, srv, cli := fixture(t, netsim.Ethernet100())
		StartServer(srv, 0)
		c := NewClient(cli, Config{MsgLen: 1000, InterSend: time.Millisecond, Count: count})
		var errs int
		cli.Spawn("tester", func(p *sim.Proc) {
			p.Sleep(period / 2)
			for {
				start := p.Now()
				if res, err := c.Measure(p, "server", 0); err != nil || res.Received != count {
					errs++
				}
				p.Sleep(start + period - p.Now())
			}
		})
		k.RunUntil(10 * period)
		n := testing.AllocsPerRun(50, func() { k.RunUntil(k.Now() + period) })
		if errs != 0 {
			t.Fatalf("count %d: %d measurements failed or lost messages", count, errs)
		}
		return n
	}
	n8, n64 := perMeasure(8), perMeasure(64)
	if n8 != n64 {
		t.Fatalf("a measurement allocates %v objects at 8 messages and %v at 64: messages allocate", n8, n64)
	}
	if n8 != 0 {
		t.Fatalf("a measurement allocates %v objects, want 0", n8)
	}
}

// TestLateReplyReachesNoLaterCall: a reply that arrives after its call hung
// up is dropped at the closed socket and reaches no later call on the same
// Client, although the later call reuses the adapter and its socket. The
// slow target answers 200 ms late, while the next call, to a target that
// answers 20 ms late, is waiting. Every frame on the segment arrives twice
// (DupProb 1), in the same event: the copy of a reply that no await takes
// must not outlive its call in the socket's queue either.
func TestLateReplyReachesNoLaterCall(t *testing.T) {
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 41)
	cfg := netsim.Ethernet10()
	cfg.DupProb = 1
	seg := nw.NewSegment("lan", cfg)
	cli := nw.NewHost("client")
	seg.Attach(cli)
	// echoer answers each echo it receives delay after it arrives.
	echoer := func(name netsim.Addr, delay time.Duration) {
		h := nw.NewHost(name)
		seg.Attach(h)
		sock := h.OpenUDP(Port)
		sock.Consume(func(pkt *netsim.Packet) {
			req, ok := decodeHeader(pkt.Payload)
			if !ok || req.typ != msgEcho {
				return
			}
			to, port := pkt.Src, pkt.SrcPort
			reply := header{typ: msgEchoReply, testID: req.testID, seq: req.seq, t1: req.t1}.put(nil)
			k.After(delay, func() { sock.SendCopy(to, port, reply, headerSize) })
		})
	}
	echoer("slow", 200*time.Millisecond)
	echoer("fast", 20*time.Millisecond)
	var lateDrops int
	var lateAt time.Duration
	nw.OnDrop = func(r netsim.DropReason, pkt *netsim.Packet) {
		if h, ok := decodeHeader(pkt.Payload); ok && r == netsim.DropNoPort && pkt.Src == "slow" && h.typ == msgEchoReply {
			lateDrops++
			lateAt = k.Now()
		}
	}
	c := NewClient(cli, Config{Timeout: 50 * time.Millisecond})
	var slow, fast [2]bool
	var rtt [2]time.Duration
	var waitFrom time.Duration
	cli.Spawn("tester", func(p *sim.Proc) {
		slow[0], _ = c.Reachability(p, "slow", 0)
		p.Sleep(140 * time.Millisecond)
		waitFrom = p.Now()
		for i := range fast {
			fast[i], rtt[i] = c.Reachability(p, "fast", 0)
		}
	})
	k.RunUntil(time.Second)
	if slow[0] || !fast[0] || !fast[1] {
		t.Fatalf("reached: slow %v, fast %v", slow[0], fast)
	}
	for i, d := range rtt {
		if d < 20*time.Millisecond || d > 30*time.Millisecond {
			t.Fatalf("fast call %d: rtt %v, want its own echo's", i, d)
		}
	}
	// The slow target got the echo twice and answered both; each answer
	// arrived twice.
	if lateDrops != 4 || lateAt < waitFrom || lateAt > waitFrom+rtt[0] {
		t.Fatalf("late replies dropped as no-port: %d, the last at %v; want 4 while the first fast call waited (%v + %v)",
			lateDrops, lateAt, waitFrom, rtt[0])
	}
}
