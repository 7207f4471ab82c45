package manager

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/hifi"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

func quickCfg() nttcp.Config {
	return nttcp.Config{MsgLen: 512, InterSend: 2 * time.Millisecond, Count: 4, Timeout: 300 * time.Millisecond}
}

// build wires a HiPer-D testbed, a hifi monitor, and a manager with server
// spares drawn from the FDDI workstations.
func build(t *testing.T, policy Policy) (*sim.Kernel, *topo.HiPerD, *Manager) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	h := topo.BuildHiPerD(k, 1)
	mon := hifi.New(h.Mgmt, quickCfg(), 1)
	mon.Start()
	m := New(h.Mgmt, mon, policy)
	serverPool := []netsim.Addr{"s1", "s2", "s3", "w-fddi-1", "w-fddi-2"}
	clientPool := []netsim.Addr{"c1", "c2", "c3", "c5", "c6"}
	m.DefinePool("server", serverPool)
	m.DefinePool("client", clientPool)
	for i := 1; i <= 3; i++ {
		if _, err := m.Place(fmt.Sprintf("rtds-%d", i), "server"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if _, err := m.Place(fmt.Sprintf("cl-%d", i), "client"); err != nil {
			t.Fatal(err)
		}
	}
	return k, h, m
}

func TestPlacementFillsPoolInOrder(t *testing.T) {
	_, _, m := build(t, Policy{RequireReachable: true})
	pl, _ := m.Placement("rtds-1")
	if pl.Host != "s1" {
		t.Fatalf("rtds-1 on %s", pl.Host)
	}
	pl3, _ := m.Placement("rtds-3")
	if pl3.Host != "s3" {
		t.Fatalf("rtds-3 on %s", pl3.Host)
	}
	if len(m.Placements()) != 6 {
		t.Fatalf("placements = %d", len(m.Placements()))
	}
}

func TestPoolExhaustion(t *testing.T) {
	_, _, m := build(t, Policy{RequireReachable: true})
	m.DefinePool("tiny", []netsim.Addr{"c9"})
	if _, err := m.Place("x1", "tiny"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Place("x2", "tiny"); err == nil {
		t.Fatal("second placement on one-host pool succeeded")
	}
}

func TestPathListCrossProduct(t *testing.T) {
	_, _, m := build(t, Policy{RequireReachable: true})
	paths := m.PathList("server", "client")
	if len(paths) != 9 {
		t.Fatalf("paths = %d, want 3x3", len(paths))
	}
}

func TestFailoverOnHostDeath(t *testing.T) {
	k, h, m := build(t, Policy{RequireReachable: true, Grace: 2, EvalInterval: 500 * time.Millisecond})
	var events []Reconfig
	m.OnReconfig = func(r Reconfig) { events = append(events, r) }
	m.Start("server", "client")
	// Let monitoring warm up, then kill s2 (hosting rtds-2).
	k.At(3*time.Second, func() { h.Servers[1].SetUp(false) })
	k.RunUntil(30 * time.Second)
	if len(events) == 0 {
		t.Fatal("no reconfiguration after server death")
	}
	first := events[0]
	if first.Process != "rtds-2" || first.From != "s2" {
		t.Fatalf("reconfig = %v", first)
	}
	if first.To != "w-fddi-1" {
		t.Fatalf("failover target = %s, want first spare w-fddi-1", first.To)
	}
	pl, _ := m.Placement("rtds-2")
	if pl.Host != first.To || pl.Incarnation != 1 {
		t.Fatalf("placement after failover: %+v", pl)
	}
	// The healthy processes were not disturbed.
	for _, name := range []string{"rtds-1", "rtds-3", "cl-1", "cl-2", "cl-3"} {
		pl, _ := m.Placement(name)
		if pl.Incarnation != 0 {
			t.Fatalf("%s was reconfigured: %+v", name, pl)
		}
	}
	// New path list monitors the new host.
	found := false
	for _, p := range m.PathList("server", "client") {
		if p.Hops[0].Host == first.To {
			found = true
		}
	}
	if !found {
		t.Fatal("path list does not include failover host")
	}
}

func TestClientFailover(t *testing.T) {
	k, h, m := build(t, Policy{RequireReachable: true, Grace: 2, EvalInterval: 500 * time.Millisecond})
	m.Start("server", "client")
	k.At(3*time.Second, func() { h.Clients[0].SetUp(false) }) // c1 hosts cl-1
	k.RunUntil(30 * time.Second)
	pl, _ := m.Placement("cl-1")
	if pl.Host == "c1" {
		t.Fatal("client process not moved off dead host")
	}
	if pl.Host != "c5" {
		t.Fatalf("moved to %s, want first spare c5", pl.Host)
	}
}

func TestGraceSuppressesTransients(t *testing.T) {
	// A brief outage shorter than Grace evaluations must not reconfigure.
	k, h, m := build(t, Policy{RequireReachable: true, Grace: 8, EvalInterval: 500 * time.Millisecond})
	m.Start("server", "client")
	k.At(3*time.Second, func() { h.Clients[0].SetUp(false) })
	k.At(3500*time.Millisecond, func() { h.Clients[0].SetUp(true) })
	k.RunUntil(20 * time.Second)
	if len(m.Reconfigs) != 0 {
		t.Fatalf("transient caused reconfiguration: %v", m.Reconfigs)
	}
}

func TestTotalBlackoutDoesNotThrash(t *testing.T) {
	// If everything goes down at once (manager-side partition), no single
	// process is singled out and nothing should move. Grace must cover a
	// full sweep of the (all-timing-out) path list, or stale good samples
	// make early casualties look like isolated failures — the senescence
	// effect §4.4 warns about.
	k, h, m := build(t, Policy{RequireReachable: true, Grace: 8, EvalInterval: 500 * time.Millisecond})
	m.Start("server", "client")
	k.At(3*time.Second, func() {
		for _, n := range append(append([]*netsim.Node{}, h.Servers...), h.Clients...) {
			n.SetUp(false)
		}
	})
	k.RunUntil(15 * time.Second)
	if len(m.Reconfigs) != 0 {
		t.Fatalf("blackout caused %d reconfigs: %v", len(m.Reconfigs), m.Reconfigs)
	}
}

func TestThroughputPolicyUsesMetrics(t *testing.T) {
	_, _, mgr := build(t, Policy{RequireReachable: true, MinThroughputBps: 1e5})
	hasTP := false
	for _, met := range mgr.Metrics {
		if met == metrics.Throughput {
			hasTP = true
		}
	}
	if !hasTP {
		t.Fatal("throughput policy did not request throughput metric")
	}
}

func TestPoolExhaustedFailoverLogsButKeepsPlacement(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	mon := hifi.New(h.Mgmt, quickCfg(), 1)
	mon.Start()
	m := New(h.Mgmt, mon, Policy{RequireReachable: true, Grace: 2, EvalInterval: 500 * time.Millisecond})
	m.DefinePool("server", []netsim.Addr{"s1", "s2"}) // both in use: no spare
	m.DefinePool("client", []netsim.Addr{"c1", "c2"})
	m.Place("srv", "server")
	m.Place("srv2", "server")
	m.Place("cl", "client")
	m.Start("server", "client")
	k.At(2*time.Second, func() { h.Servers[0].SetUp(false) })
	k.RunUntil(15 * time.Second)
	found := false
	for _, r := range m.Reconfigs {
		if r.Reason == "pool exhausted: no spare host" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no pool-exhausted record: %v", m.Reconfigs)
	}
	pl, _ := m.Placement("srv")
	if pl.Host != "s1" {
		t.Fatalf("placement moved despite exhausted pool: %v", pl)
	}
}

func TestPathIDsEmbedPlacements(t *testing.T) {
	_, _, m := build(t, Policy{RequireReachable: true})
	paths := m.PathList("server", "client")
	if paths[0].ID != core.PathID("s1/rtds-1->c1/cl-1") {
		t.Fatalf("path ID = %s", paths[0].ID)
	}
}

func TestHostCooldownBlocksReuse(t *testing.T) {
	// After rtds-2 leaves s2, a flapping s2 must not be chosen again
	// within the cooldown even when another process needs a host.
	k, h, m := build(t, Policy{RequireReachable: true, Grace: 2,
		EvalInterval: 500 * time.Millisecond, HostCooldown: time.Hour})
	m.Start("server", "client")
	k.At(3*time.Second, func() { h.Servers[1].SetUp(false) })
	// s2 comes right back up (flap) before the next failure.
	k.At(12*time.Second, func() { h.Servers[1].SetUp(true) })
	k.At(15*time.Second, func() { h.Servers[0].SetUp(false) }) // kill s1 too
	k.RunUntil(60 * time.Second)
	pl1, _ := m.Placement("rtds-1")
	if pl1.Host == "s2" {
		t.Fatal("flapping host reused within cooldown")
	}
	if pl1.Incarnation == 0 {
		t.Fatalf("rtds-1 never failed over: %v", m.Reconfigs)
	}
}

func TestLatencyPolicyViolation(t *testing.T) {
	// A path whose latency exceeds the ceiling is a policy violation even
	// while reachable.
	k, _, m := build(t, Policy{RequireReachable: true, MaxLatency: time.Nanosecond,
		Grace: 2, EvalInterval: 500 * time.Millisecond})
	// Every real path has latency >> 1ns, so every process looks failed;
	// the blackout guard must hold everything in place (no thrash), which
	// is itself the correct behaviour for a policy that nothing can meet.
	m.Start("server", "client")
	k.RunUntil(15 * time.Second)
	for _, pl := range m.Placements() {
		if pl.Incarnation != 0 {
			t.Fatalf("unsatisfiable policy caused thrash: %+v", pl)
		}
	}
}

func TestStaleDataTreatedAsMissingNotHealthy(t *testing.T) {
	// A monitor that stops refreshing a path must not keep the manager
	// believing the path is healthy forever: with MaxStaleness set, an
	// aging "reachable" sample stops counting, and with the monitor's
	// senescence watchdog running the database itself reports it stale.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	mon := cots.New(h.Mgmt, "public", 500*time.Millisecond)
	mgr := New(h.Mgmt, mon, Policy{
		RequireReachable: true,
		Grace:            2,
		EvalInterval:     time.Second,
		MaxStaleness:     2 * time.Second,
	})
	mgr.DefinePool("server", []netsim.Addr{"s1", "s2"})
	mgr.DefinePool("client", []netsim.Addr{"c1"})
	if _, err := mgr.Place("rtds", "server"); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Place("disp", "client"); err != nil {
		t.Fatal(err)
	}
	mon.Start()
	mgr.Start("server", "client")
	wd := mon.StartSenescenceWatchdog(k, 500*time.Millisecond, 2*time.Second)
	defer wd.Stop()

	// Freeze collection at 5s without killing any host: the last sample
	// says "reachable" but only grows older from here on.
	k.At(5*time.Second, func() { mon.Stop() })
	k.RunUntil(15 * time.Second)

	if mgr.StaleReads == 0 {
		t.Fatal("manager never rejected a stale sample")
	}
	if mon.DB.StaleMarked == 0 {
		t.Fatal("watchdog marked nothing stale after collection froze")
	}
	// Crucially, stale data is missing data, not a violation: no failover
	// may be triggered on age alone.
	if len(mgr.Reconfigs) != 0 {
		t.Fatalf("staleness alone caused reconfiguration: %v", mgr.Reconfigs)
	}
}

// enableSketches turns on quantile sketches on the manager's monitor —
// must run before the kernel starts recording.
func enableSketches(t *testing.T, m *Manager) {
	t.Helper()
	hm, ok := m.mon.(*hifi.Monitor)
	if !ok {
		t.Fatalf("monitor is %T, want *hifi.Monitor", m.mon)
	}
	hm.Database().EnableSketches(sketch.Thresholds{})
}

func TestTailLatencyPolicyFires(t *testing.T) {
	// A p95 ceiling nothing can meet: the tail check must fire on every
	// path (the tail_violations counter advances), every process then
	// looks failed, and the blackout guard keeps placements stable — the
	// correct response to a policy no host can satisfy.
	k, _, m := build(t, Policy{RequireReachable: true, LatencyP95Max: time.Nanosecond,
		Grace: 2, EvalInterval: 500 * time.Millisecond, TailMinSamples: 4})
	enableSketches(t, m)
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, "mgr")
	m.Start("server", "client")
	k.RunUntil(15 * time.Second)
	if reg.Counter("mgr.tail_violations").Value() == 0 {
		t.Fatal("tail-latency policy never fired despite an unmeetable ceiling")
	}
	for _, pl := range m.Placements() {
		if pl.Incarnation != 0 {
			t.Fatalf("unsatisfiable tail policy caused thrash: %+v", pl)
		}
	}
}

func TestTailLatencyPolicyQuietUnderCeiling(t *testing.T) {
	// A generous p99 ceiling: healthy paths must not trip the tail check.
	k, _, m := build(t, Policy{RequireReachable: true, LatencyP99Max: time.Hour,
		Grace: 2, EvalInterval: 500 * time.Millisecond, TailMinSamples: 4})
	enableSketches(t, m)
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, "mgr")
	m.Start("server", "client")
	k.RunUntil(15 * time.Second)
	if v := reg.Counter("mgr.tail_violations").Value(); v != 0 {
		t.Fatalf("tail policy fired %d times under a generous ceiling", v)
	}
	if len(m.Reconfigs) != 0 {
		t.Fatalf("unexpected reconfigurations: %v", m.Reconfigs)
	}
}

func TestTailPolicySkippedWithoutSketches(t *testing.T) {
	// The monitor never enabled sketches: the tail check cannot answer and
	// must be skipped — no panic, no phantom violations.
	k, _, m := build(t, Policy{RequireReachable: true, LatencyP95Max: time.Nanosecond,
		Grace: 2, EvalInterval: 500 * time.Millisecond, TailMinSamples: 4})
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg, "mgr")
	m.Start("server", "client")
	k.RunUntil(10 * time.Second)
	if v := reg.Counter("mgr.tail_violations").Value(); v != 0 {
		t.Fatalf("tail policy fired %d times with no sketch to consult", v)
	}
	if len(m.Reconfigs) != 0 {
		t.Fatalf("unexpected reconfigurations: %v", m.Reconfigs)
	}
}

// TestTelemetryReadsOwnersFields: the four published counts are the
// manager's own fields, under a host death read through a tight staleness
// gate (failover, stale reads) and under each unmeetable tail policy.
func TestTelemetryReadsOwnersFields(t *testing.T) {
	for _, tc := range []struct {
		name     string
		policy   Policy
		sketches bool
		kill     bool
		moved    func(m *Manager) uint64 // the count the scenario exists to move
	}{
		{name: "failover behind a staleness gate",
			policy: Policy{RequireReachable: true, Grace: 2, EvalInterval: 500 * time.Millisecond, MaxStaleness: 300 * time.Millisecond},
			kill:   true,
			moved:  func(m *Manager) uint64 { return min(m.Failovers, m.StaleReads) }},
		{name: "p95 latency ceiling",
			policy: Policy{RequireReachable: true, LatencyP95Max: time.Nanosecond,
				Grace: 2, EvalInterval: 500 * time.Millisecond, TailMinSamples: 4},
			sketches: true,
			moved:    func(m *Manager) uint64 { return m.TailViolations }},
		{name: "p99 latency ceiling",
			policy: Policy{RequireReachable: true, LatencyP99Max: time.Nanosecond,
				Grace: 2, EvalInterval: 500 * time.Millisecond, TailMinSamples: 4},
			sketches: true,
			moved:    func(m *Manager) uint64 { return m.TailViolations }},
		{name: "p95-confidence throughput floor",
			policy: Policy{RequireReachable: true, ThroughputP95Min: 1e12,
				Grace: 2, EvalInterval: 500 * time.Millisecond, TailMinSamples: 4},
			sketches: true,
			moved:    func(m *Manager) uint64 { return m.TailViolations }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, h, m := build(t, tc.policy)
			if tc.sketches {
				enableSketches(t, m)
			}
			m.EnableTelemetry(nil, "off") // a nil registry is a no-op
			reg := telemetry.NewRegistry()
			m.EnableTelemetry(reg, "mgr")
			m.Start("server", "client")
			if tc.kill {
				k.At(3*time.Second, func() { h.Servers[1].SetUp(false) })
			}
			k.RunUntil(20 * time.Second)
			if m.Evaluations == 0 || tc.moved(m) == 0 {
				t.Fatalf("scenario drifted: evaluations %d failovers %d stale reads %d tail violations %d",
					m.Evaluations, m.Failovers, m.StaleReads, m.TailViolations)
			}
			moves := uint64(0)
			for _, r := range m.Reconfigs {
				if r.From != r.To {
					moves++
				}
			}
			if m.Failovers != moves {
				t.Errorf("Failovers = %d, the decision log holds %d host moves", m.Failovers, moves)
			}
			want := map[string]uint64{
				"mgr.evaluations":     m.Evaluations,
				"mgr.failovers":       m.Failovers,
				"mgr.stale_reads":     m.StaleReads,
				"mgr.tail_violations": m.TailViolations,
			}
			for name, w := range want {
				if got := reg.Counter(name).Value(); got != w {
					t.Errorf("%s = %d, want %d", name, got, w)
				}
			}
			if reg.Len() != len(want) {
				t.Errorf("%d instruments registered, %d checked against the manager", reg.Len(), len(want))
			}
		})
	}
}
