package vclock

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestAdjustFreqCancelsDrift(t *testing.T) {
	c := &Clock{Drift: 100e-6}
	// At t=10s, apply the exact counter-rate.
	c.AdjustFreq(10*time.Second, -100e-6)
	// The first 10 s of drift (1 ms) remain; no more accumulates.
	e1 := c.ErrorAt(10 * time.Second)
	e2 := c.ErrorAt(110 * time.Second)
	if e1 != time.Millisecond {
		t.Fatalf("error at adjustment = %v, want 1ms", e1)
	}
	if d := e2 - e1; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("drift kept accumulating: %v -> %v", e1, e2)
	}
}

func TestAdjustFreqIsForwardOnly(t *testing.T) {
	c := &Clock{}
	c.AdjustFreq(10*time.Second, 50e-6)
	c.AdjustFreq(20*time.Second, -50e-6) // back to nominal
	// 10s at +50ppm = 500µs, folded into the offset, stable afterwards.
	if e := c.ErrorAt(30 * time.Second); e != 500*time.Microsecond {
		t.Fatalf("folded error = %v, want 500µs", e)
	}
}

// holdover measures the worst clock error between syncs over a long run.
func holdover(t *testing.T, discipline bool) time.Duration {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 71)
	srv := nw.NewHost("timehost")
	cli := nw.NewHost("client")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(srv)
	seg.Attach(cli)
	cc := &Clock{Offset: 30 * time.Millisecond, Drift: 200e-6}
	cli.LocalClock = cc
	StartSyncServer(srv, NTPPort)
	client := &SyncClient{Node: cli, Clock: cc, Server: "timehost",
		Poll: 16 * time.Second, Discipline: discipline}
	client.Run()
	var worst time.Duration
	// Sample the error every second after the loop has settled.
	k.At(40*time.Second, func() {
		k.Every(time.Second, func() {
			e := cc.ErrorAt(k.Now())
			if e < 0 {
				e = -e
			}
			if e > worst {
				worst = e
			}
		})
	})
	k.RunUntil(5 * time.Minute)
	if client.Syncs < 10 {
		t.Fatalf("only %d syncs", client.Syncs)
	}
	return worst
}

func TestDisciplineImprovesHoldover(t *testing.T) {
	plain := holdover(t, false)
	disciplined := holdover(t, true)
	// Undisciplined: error grows to ~drift*poll = 200ppm*16s = 3.2ms
	// between syncs. Disciplined: bounded by estimation noise.
	if plain < time.Millisecond {
		t.Fatalf("undisciplined holdover %v suspiciously good", plain)
	}
	if disciplined*4 > plain {
		t.Fatalf("discipline did not help: %v vs %v", disciplined, plain)
	}
}

func TestSyncOnceStandalone(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 72)
	srv := nw.NewHost("timehost")
	cli := nw.NewHost("client")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(srv)
	seg.Attach(cli)
	cc := &Clock{Offset: 10 * time.Millisecond}
	cli.LocalClock = cc
	StartSyncServer(srv, NTPPort)
	client := &SyncClient{Node: cli, Clock: cc, Server: "timehost"}
	cli.Spawn("once", func(p *sim.Proc) { client.SyncOnce(p) })
	k.RunUntil(5 * time.Second)
	if client.Syncs != 1 {
		t.Fatalf("syncs = %d", client.Syncs)
	}
	if e := cc.ErrorAt(k.Now()); e > time.Millisecond || e < -time.Millisecond {
		t.Fatalf("residual after one-shot sync = %v", e)
	}
	if cc.freqAdj != 0 {
		t.Fatal("one-shot sync should not touch frequency")
	}
}
