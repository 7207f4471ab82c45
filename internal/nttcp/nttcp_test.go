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
