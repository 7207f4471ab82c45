package chaos

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

func fixture(t *testing.T) (*sim.Kernel, *netsim.Network, *netsim.Node, *netsim.Node, *netsim.SharedSegment) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	nw, a, b, seg := topo.TwoHosts(k, 1)
	return k, nw, a, b, seg
}

// flow starts a 1 msg/10ms stream a->b and returns the sink.
func flow(k *sim.Kernel, a *netsim.Node, until time.Duration) *netsim.Sink {
	sink := netsim.NewSink(a.Network().Node("b"), 9)
	(&netsim.CBRSource{Src: a, Dst: "b", DstPort: 9, Size: 100,
		Interval: 10 * time.Millisecond, Count: int(until / (10 * time.Millisecond))}).Run()
	return sink
}

func TestKillAndRestore(t *testing.T) {
	k, nw, a, b, _ := fixture(t)
	sink := flow(k, a, 3*time.Second)
	s := NewSchedule(nw)
	s.Kill("b", time.Second).Restore("b", 2*time.Second)
	k.Run()
	// ~100 msgs while up (0-1s), ~100 lost (1-2s), ~100 after (2-3s).
	if sink.Received < 180 || sink.Received > 220 {
		t.Fatalf("received %d, want ≈200", sink.Received)
	}
	if len(s.Log) != 2 || s.Log[0].Kind != "kill" || s.Log[1].Kind != "restore" {
		t.Fatalf("log = %v", s.Log)
	}
	if !b.Up() {
		t.Fatal("b not restored")
	}
}

func TestFlap(t *testing.T) {
	k, nw, a, _, _ := fixture(t)
	flow(k, a, 5*time.Second)
	s := NewSchedule(nw)
	s.Flap("b", time.Second, time.Second, 300*time.Millisecond, 3)
	k.Run()
	if len(s.Log) != 6 {
		t.Fatalf("flap log = %v", s.Log)
	}
	kills := 0
	for _, e := range s.Log {
		if e.Kind == "kill" {
			kills++
		}
	}
	if kills != 3 {
		t.Fatalf("kills = %d", kills)
	}
}

func TestCutIfaceIsolatesButHostLives(t *testing.T) {
	k, nw, a, b, _ := fixture(t)
	sink := flow(k, a, 2*time.Second)
	s := NewSchedule(nw)
	s.CutIface("b", 1, 500*time.Millisecond)
	k.Run()
	if sink.Received > 60 {
		t.Fatalf("received %d after cable pull at 0.5s", sink.Received)
	}
	if !b.Up() {
		t.Fatal("host itself went down")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	s := NewSchedule(h.Net)
	sink := netsim.NewSink(h.Clients[0], 9)
	(&netsim.CBRSource{Src: h.Servers[0], Dst: "c1", DstPort: 9, Size: 100,
		Interval: 10 * time.Millisecond, Count: 400}).Run()
	s.Partition([]netsim.Addr{"c1", "c2"}, time.Second, 3*time.Second)
	k.Run()
	// 1s up + 2s partitioned + 1s healed ≈ 200 of 400 delivered.
	if sink.Received < 170 || sink.Received > 230 {
		t.Fatalf("received %d, want ≈200", sink.Received)
	}
	healed := 0
	for _, e := range s.Log {
		if e.Kind == "heal" {
			healed++
		}
	}
	if healed != 2 {
		t.Fatalf("heal events = %d, log %v", healed, s.Log)
	}
}

func TestDegradeRaisesLoss(t *testing.T) {
	k, nw, a, _, seg := fixture(t)
	sink := flow(k, a, 4*time.Second)
	s := NewSchedule(nw)
	s.Degrade(seg, 0.5, time.Second, 3*time.Second)
	k.Run()
	// 2s clean (200 msgs) + 2s at 50% (≈100) ≈ 300.
	if sink.Received < 260 || sink.Received > 340 {
		t.Fatalf("received %d, want ≈300", sink.Received)
	}
	if seg.Config().LossProb != 0 {
		t.Fatal("loss not healed")
	}
}

func TestDegradeRestoresBaselineLoss(t *testing.T) {
	// Regression: healing used to hard-reset loss to 0, so degrading a
	// segment with baseline loss left it magically perfect afterwards.
	k, nw, _, _, seg := fixture(t)
	seg.SetLossProb(0.1)
	s := NewSchedule(nw)
	s.Degrade(seg, 0.5, time.Second, 2*time.Second)
	k.RunUntil(3 * time.Second)
	if got := seg.Config().LossProb; got != 0.1 {
		t.Fatalf("baseline loss after heal = %v, want 0.1", got)
	}
	if len(s.Log) != 2 || s.Log[0].Kind != "degrade" || s.Log[1].Kind != "heal-degrade" {
		t.Fatalf("log = %v", s.Log)
	}
}

func TestDegradeHealWithoutInjectionIsNoOp(t *testing.T) {
	// The heal callback must not fire when the injection never ran (e.g.
	// the kernel stopped before the degrade time).
	k, nw, _, _, seg := fixture(t)
	seg.SetLossProb(0.2)
	s := NewSchedule(nw)
	s.Degrade(seg, 0.9, 10*time.Second, 20*time.Second)
	k.RunUntil(time.Second)
	// Drain the pending events by hand: run to completion; the degrade
	// fires at 10s, heal at 20s — both beyond what this test simulated,
	// so nothing should have been recorded yet.
	if len(s.Log) != 0 {
		t.Fatalf("premature injections: %v", s.Log)
	}
	if seg.Config().LossProb != 0.2 {
		t.Fatalf("loss prob disturbed: %v", seg.Config().LossProb)
	}
}

func TestFlapRejectsBadArguments(t *testing.T) {
	// Regression: count <= 0 and non-positive durations used to silently
	// schedule nothing (or overlapping kill/restore pairs).
	_, nw, _, _, _ := fixture(t)
	s := NewSchedule(nw)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("count=0", func() { s.Flap("b", 0, time.Second, 100*time.Millisecond, 0) })
	mustPanic("count<0", func() { s.Flap("b", 0, time.Second, 100*time.Millisecond, -3) })
	mustPanic("period=0", func() { s.Flap("b", 0, 0, 100*time.Millisecond, 1) })
	mustPanic("downFor=0", func() { s.Flap("b", 0, time.Second, 0, 1) })
}

func TestFlapClampsDownForToPeriod(t *testing.T) {
	// downFor > period used to produce overlapping cycles where a later
	// Kill fired before the earlier Restore, leaving host state dependent
	// on scheduling order. Clamped, the host is simply down continuously
	// and comes back after the last cycle.
	k, nw, _, b, _ := fixture(t)
	s := NewSchedule(nw)
	s.Flap("b", time.Second, time.Second, 5*time.Second, 3)
	k.RunUntil(10 * time.Second)
	if !b.Up() {
		t.Fatal("host not up after clamped flap finished")
	}
	// 3 kills + 3 restores, restores at period boundaries (base+period).
	if len(s.Log) != 6 {
		t.Fatalf("log = %v", s.Log)
	}
	var lastRestore time.Duration
	for _, e := range s.Log {
		if e.Kind == "restore" {
			lastRestore = e.At
		}
	}
	if lastRestore != 4*time.Second {
		t.Fatalf("last restore at %v, want 4s (start 1s + cycle 3 end)", lastRestore)
	}
}

func TestChaosAgainstResourceManagerScenario(t *testing.T) {
	// The survivability premise: a flapping host must not bounce the
	// workload around when the manager has cooldown protection — chaos
	// and manager compose.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	s := NewSchedule(h.Net)
	s.Flap("c9", 2*time.Second, 4*time.Second, 2*time.Second, 4)
	k.RunUntil(20 * time.Second)
	if len(s.Log) < 6 {
		t.Fatalf("chaos did not run: %v", s.Log)
	}
	// Deterministic: same schedule, same log.
	k2 := sim.NewKernel()
	defer k2.Close()
	h2 := topo.BuildHiPerD(k2, 1)
	s2 := NewSchedule(h2.Net)
	s2.Flap("c9", 2*time.Second, 4*time.Second, 2*time.Second, 4)
	k2.RunUntil(20 * time.Second)
	if len(s.Log) != len(s2.Log) {
		t.Fatalf("chaos nondeterministic: %d vs %d events", len(s.Log), len(s2.Log))
	}
	for i := range s.Log {
		if s.Log[i].String() != s2.Log[i].String() {
			t.Fatalf("chaos diverged at %d", i)
		}
	}
}

func TestFaultsSurfaceThroughMonitorRun(t *testing.T) {
	// End-to-end: an injected host crash must be visible to a resource
	// manager reading the monitor's database — reachability goes 1 while
	// the host answers, 0 while it is dead, and back to 1 after Restore.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	path := core.NewPath(
		core.ProcessRef{Host: "s1", Process: "rtds"},
		core.ProcessRef{Host: "c1", Process: "client"},
	)
	m := cots.New(h.Mgmt, "public", 500*time.Millisecond)
	m.Submit(core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Reachability}})
	m.Start()

	s := NewSchedule(h.Net)
	s.Kill("c1", 5*time.Second).Restore("c1", 10*time.Second)
	k.RunUntil(16 * time.Second)

	if len(s.Log) != 2 || s.Log[0].Kind != "kill" || s.Log[1].Kind != "restore" {
		t.Fatalf("injection log = %v", s.Log)
	}
	var hist []core.Measurement
	m.DB.EachHistory(path.ID, metrics.Reachability, 0, func(ms core.Measurement) bool {
		hist = append(hist, ms)
		return true
	})
	if len(hist) == 0 {
		t.Fatal("monitor recorded no reachability samples")
	}
	// Collapse the sample series into its phase transitions.
	var phases []float64
	for _, ms := range hist {
		if len(phases) == 0 || phases[len(phases)-1] != ms.Value {
			phases = append(phases, ms.Value)
		}
	}
	want := []float64{1, 0, 1}
	if len(phases) != len(want) {
		t.Fatalf("reachability phases = %v, want %v (history %v)", phases, want, hist)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("reachability phases = %v, want %v", phases, want)
		}
	}
	// And the up/down flanks must line up with the injection times.
	for _, ms := range hist {
		down := ms.TakenAt > 5*time.Second && ms.TakenAt < 10*time.Second
		if down && ms.Value != 0 {
			t.Fatalf("sample at %v reads reachable while host dead", ms.TakenAt)
		}
		if ms.TakenAt < 5*time.Second && ms.Value != 1 {
			t.Fatalf("sample at %v reads unreachable before the kill", ms.TakenAt)
		}
	}
}

func TestKillUnknownHostIsNoOp(t *testing.T) {
	// Injections against hosts that do not exist must neither panic nor
	// pollute the log.
	k, nw, a, _, _ := fixture(t)
	sink := flow(k, a, time.Second)
	s := NewSchedule(nw)
	s.Kill("ghost", 200*time.Millisecond).Restore("ghost", 400*time.Millisecond)
	k.Run()
	if len(s.Log) != 0 {
		t.Fatalf("no-op injections were recorded: %v", s.Log)
	}
	if sink.Received < 80 {
		t.Fatalf("traffic disturbed by no-op injection: %d received", sink.Received)
	}
}

func TestRestoreIface(t *testing.T) {
	k, nw, a, _, _ := fixture(t)
	sink := flow(k, a, 3*time.Second)
	s := NewSchedule(nw)
	s.CutIface("b", 1, 500*time.Millisecond)
	s.RestoreIface("b", 1, 1500*time.Millisecond)
	k.Run()
	// ~50 before cut, ~0 during, ~150 after restore.
	if sink.Received < 150 || sink.Received > 250 {
		t.Fatalf("received %d, want ≈200", sink.Received)
	}
	if len(s.Log) != 2 || s.Log[1].Kind != "restore-iface" {
		t.Fatalf("log = %v", s.Log)
	}
}
