package vclock

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestClockOffsetAndDrift(t *testing.T) {
	c := &Clock{Offset: 10 * time.Millisecond, Drift: 100e-6}
	if got := c.Now(0); got != 10*time.Millisecond {
		t.Fatalf("Now(0) = %v, want 10ms", got)
	}
	// After 100s, 100ppm drift adds 10ms.
	got := c.Now(100 * time.Second)
	want := 100*time.Second + 10*time.Millisecond + 10*time.Millisecond
	if got != want {
		t.Fatalf("Now(100s) = %v, want %v", got, want)
	}
}

func TestClockGranularity(t *testing.T) {
	c := &Clock{Granularity: 10 * time.Millisecond}
	if got := c.Now(123456789 * time.Nanosecond); got != 120*time.Millisecond {
		t.Fatalf("quantized Now = %v, want 120ms", got)
	}
}

func TestClockGranularityFloorsNegativeReadings(t *testing.T) {
	const g = 10 * time.Millisecond
	// -15 ms local lies in the tick that began at -20 ms; truncation toward
	// zero would report -10 ms, a tick that has not happened yet.
	c := &Clock{Offset: -15 * time.Millisecond, Granularity: g}
	if got := c.Now(0); got != -20*time.Millisecond {
		t.Fatalf("Now(0) = %v, want -20ms", got)
	}
	// From -10 ms to +10 ms local the reading steps once per tick: every
	// bucket is one tick wide, the one around 0 included.
	c = &Clock{Offset: -10 * time.Millisecond, Granularity: g}
	prev, steps := c.Now(0), 0
	for at := time.Duration(0); at <= 2*g; at += time.Millisecond {
		got := c.Now(at)
		local := at - 10*time.Millisecond
		if got > local || local-got >= g {
			t.Fatalf("Now at local %v = %v, want the tick at or just below", local, got)
		}
		if got != prev {
			if got-prev != g {
				t.Fatalf("reading jumped %v -> %v at local %v", prev, got, local)
			}
			steps++
			prev = got
		}
	}
	if steps != 2 {
		t.Fatalf("steps from -10ms to +10ms = %d, want 2", steps)
	}
}

func TestAdjust(t *testing.T) {
	c := &Clock{Offset: -5 * time.Millisecond}
	c.Adjust(5 * time.Millisecond)
	if e := c.ErrorAt(time.Second); e != 0 {
		t.Fatalf("error after perfect adjust = %v, want 0", e)
	}
}

func TestEstimateOffsetSymmetric(t *testing.T) {
	// Client at true time; server 7ms ahead; symmetric 1ms path.
	// t1=100ms (client), t2=101+7=108ms (server local), t4=102ms (client).
	got := EstimateOffset(100*time.Millisecond, 108*time.Millisecond, 102*time.Millisecond)
	if got != 7*time.Millisecond {
		t.Fatalf("EstimateOffset = %v, want 7ms", got)
	}
}

func TestPropertyEstimateOffsetRecoversTrueOffset(t *testing.T) {
	// For any offset and symmetric delay, the estimator is exact.
	f := func(offMs int16, delayUs uint16) bool {
		off := time.Duration(offMs) * time.Millisecond
		d := time.Duration(delayUs) * time.Microsecond
		t1 := 50 * time.Millisecond
		t2 := t1 + d + off
		t4 := t1 + 2*d
		return EstimateOffset(t1, t2, t4) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBestSamplePicksMinRTT(t *testing.T) {
	s, ok := BestSample([]Sample{
		{Offset: 1, RTT: 30},
		{Offset: 2, RTT: 10},
		{Offset: 3, RTT: 20},
	})
	if !ok || s.Offset != 2 {
		t.Fatalf("BestSample = %+v, %v", s, ok)
	}
	if _, ok := BestSample(nil); ok {
		t.Fatal("BestSample(nil) ok")
	}
}

// syncFixture builds client and server hosts on a LAN with skewed clocks.
func syncFixture(t *testing.T) (*sim.Kernel, *netsim.Node, *netsim.Node, *Clock) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw := netsim.New(k, 1)
	srv := nw.NewHost("timehost")
	cli := nw.NewHost("client")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(srv)
	seg.Attach(cli)
	cc := &Clock{Offset: 25 * time.Millisecond, Drift: 50e-6}
	cli.LocalClock = cc
	StartSyncServer(srv)
	return k, srv, cli, cc
}

func TestNTPSyncConverges(t *testing.T) {
	k, _, cli, cc := syncFixture(t)
	client := &SyncClient{Node: cli, Clock: cc, Server: "timehost", Poll: time.Second}
	client.Run()
	k.RunUntil(10 * time.Second)
	if client.Syncs < 5 {
		t.Fatalf("syncs = %d, want >= 5", client.Syncs)
	}
	err := cc.ErrorAt(k.Now())
	if err < 0 {
		err = -err
	}
	// Residual error should be far below the initial 25ms offset —
	// bounded by path asymmetry and drift between polls.
	if err > time.Millisecond {
		t.Fatalf("residual clock error = %v, want < 1ms", err)
	}
}

func TestNTPTrafficAccounting(t *testing.T) {
	k, srv, cli, cc := syncFixture(t)
	client := &SyncClient{Node: cli, Clock: cc, Server: "timehost", Poll: time.Second}
	client.Run()
	k.RunUntil(5500 * time.Millisecond)
	// 6 polls (t=0..5s) x 4 packets.
	if client.PacketsSent != 24 {
		t.Fatalf("packets sent = %d, want 24", client.PacketsSent)
	}
	if client.PacketsRecv != client.PacketsSent {
		t.Fatalf("lossless LAN lost responses: %d/%d", client.PacketsRecv, client.PacketsSent)
	}
	_ = srv
}

func TestSyncSurvivesServerOutage(t *testing.T) {
	k, srv, cli, cc := syncFixture(t)
	client := &SyncClient{Node: cli, Clock: cc, Server: "timehost", Poll: time.Second}
	client.Run()
	k.At(1500*time.Millisecond, func() { srv.SetUp(false) })
	k.RunUntil(6 * time.Second)
	if client.Syncs < 1 {
		t.Fatal("no syncs before outage")
	}
	syncsAtOutage := client.Syncs
	k.RunUntil(10 * time.Second)
	if client.Syncs != syncsAtOutage {
		t.Fatalf("client synced against a dead server: %d -> %d", syncsAtOutage, client.Syncs)
	}
}
