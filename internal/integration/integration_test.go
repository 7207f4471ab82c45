// Package integration exercises the whole stack together: application,
// monitors, resource manager, SNMP/RMON plane, and the simulated testbed —
// the paper's Figure 1 loop closed end to end.
package integration

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/cots"
	"repro/internal/hifi"
	"repro/internal/hybrid"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/rtds"
	"repro/internal/sim"
	"repro/internal/topo"
)

// scenario wires the full survivability loop and returns the pieces.
type scenario struct {
	k       *sim.Kernel
	h       *topo.HiPerD
	radar   *rtds.Radar
	servers map[string]*rtds.Server
	served  map[string][]netsim.Addr
	clients map[netsim.Addr]*rtds.Client
	mgr     *manager.Manager
}

func buildScenario(t *testing.T, mon core.Monitor, mgmt *netsim.Node, k *sim.Kernel, h *topo.HiPerD) *scenario {
	t.Helper()
	s := &scenario{
		k: k, h: h,
		servers: make(map[string]*rtds.Server),
		served:  make(map[string][]netsim.Addr),
		clients: make(map[netsim.Addr]*rtds.Client),
	}
	s.radar = rtds.NewRadar(k, 7, 40, 100*time.Millisecond)
	sets := [][]netsim.Addr{{"c1", "c2", "c3"}, {"c4", "c5", "c6"}, {"c7", "c8", "c9"}}
	for i, srv := range h.Servers {
		name := fmt.Sprintf("rtds-%d", i+1)
		s.served[name] = sets[i]
		s.servers[name] = rtds.StartServer(srv, s.radar, sets[i])
	}
	for _, c := range h.Clients {
		s.clients[c.Name] = rtds.StartClient(c)
	}
	type startable interface{ Start() }
	mon.(startable).Start()
	s.mgr = manager.New(mgmt, mon, manager.Policy{
		RequireReachable: true, Grace: 2, EvalInterval: time.Second,
	})
	s.mgr.DefinePool("server", []netsim.Addr{"s1", "s2", "s3", "w-fddi-1", "w-fddi-2"})
	s.mgr.DefinePool("client", []netsim.Addr{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"})
	for i := 1; i <= 3; i++ {
		s.mgr.Place(fmt.Sprintf("rtds-%d", i), "server")
	}
	for i := 1; i <= 9; i++ {
		s.mgr.Place(fmt.Sprintf("client-%d", i), "client")
	}
	s.mgr.OnReconfig = func(r manager.Reconfig) {
		if old, ok := s.servers[r.Process]; ok {
			old.Stop()
			s.servers[r.Process] = rtds.StartServer(h.Net.Node(r.To), s.radar, s.served[r.Process])
		}
	}
	s.mgr.Start("server", "client")
	return s
}

// placement is the manager's current placement of process.
func (s *scenario) placement(t *testing.T, process string) *manager.Placement {
	t.Helper()
	for _, pl := range s.mgr.Placements() {
		if pl.Process == process {
			return pl
		}
	}
	t.Fatalf("no placement for %s", process)
	return nil
}

func (s *scenario) freshClients(within time.Duration) int {
	fresh := 0
	for _, c := range s.clients {
		if c.Staleness(s.k.Now()) < within {
			fresh++
		}
	}
	return fresh
}

// runSurvivability kills s2 and asserts detection, failover, and recovery.
func runSurvivability(t *testing.T, makeMon func(mgmt *netsim.Node) core.Monitor, horizon time.Duration) *scenario {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	h := topo.BuildHiPerD(k, 1)
	mon := makeMon(h.Mgmt)
	s := buildScenario(t, mon, h.Mgmt, k, h)

	k.RunUntil(5 * time.Second)
	if got := s.freshClients(500 * time.Millisecond); got != 9 {
		t.Fatalf("before fault: %d/9 clients fresh", got)
	}
	h.Servers[1].SetUp(false) // kill s2 (rtds-2)
	k.RunUntil(horizon)

	pl := s.placement(t, "rtds-2")
	if pl.Host == "s2" || pl.Incarnation == 0 {
		t.Fatalf("rtds-2 not failed over: %+v (reconfigs: %v)", pl, s.mgr.Reconfigs)
	}
	if got := s.freshClients(500 * time.Millisecond); got != 9 {
		t.Fatalf("after failover: %d/9 clients fresh", got)
	}
	// Only rtds-2 moved.
	for _, p := range s.mgr.Placements() {
		if p.Process != "rtds-2" && p.Incarnation != 0 {
			t.Fatalf("innocent process moved: %+v", p)
		}
	}
	return s
}

func TestSurvivabilityWithHiFiMonitor(t *testing.T) {
	runSurvivability(t, func(m *netsim.Node) core.Monitor {
		return hifi.New(m, nttcp.Config{MsgLen: 2048, InterSend: 10 * time.Millisecond, Count: 8, Timeout: time.Second}, 1)
	}, 60*time.Second)
}

func TestSurvivabilityWithCOTSMonitor(t *testing.T) {
	runSurvivability(t, func(m *netsim.Node) core.Monitor {
		return cots.New(m, "public", time.Second)
	}, 40*time.Second)
}

func TestSurvivabilityWithHybridMonitor(t *testing.T) {
	runSurvivability(t, func(m *netsim.Node) core.Monitor {
		return hybrid.New(m, "public", hybrid.Config{
			PollInterval: time.Second,
			NTTCP:        nttcp.Config{MsgLen: 2048, InterSend: 10 * time.Millisecond, Count: 8, Timeout: time.Second},
		})
	}, 40*time.Second)
}

// TestHybridHistoryInOrder runs the hybrid as `hiperd -monitor hybrid`
// wires it (2 s surveillance, 8 × 8192 B bursts, s2 down at 10 s, 40 s) and
// holds every series the manager asked for to read forward in time: the
// rechecks of s2's paths must not be superseded by the older surveillance
// reports queued behind them.
func TestHybridHistoryInOrder(t *testing.T) {
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	h := topo.BuildHiPerD(k, 1)
	mon := hybrid.New(h.Mgmt, "public", hybrid.Config{
		PollInterval: 2 * time.Second,
		NTTCP:        nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 8, Timeout: time.Second},
	})
	buildScenario(t, mon, h.Mgmt, k, h)
	k.At(10*time.Second, func() { h.Servers[1].SetUp(false) })
	k.RunUntil(40 * time.Second)
	if mon.Escalations == 0 {
		t.Fatal("s2's failure escalated nothing")
	}
	req := mon.Request()
	coretest.HistoryInOrder(t, mon.DB, req.Paths, req.Metrics)
}

func TestMonitorsAgreeOnThroughput(t *testing.T) {
	// The same RTDS stream measured by hifi (direct) and cots
	// (counter-delta) must agree within the approximation's error budget.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	netsim.NewSink(h.Clients[4], 9)
	(&netsim.CBRSource{Src: h.Servers[0], Dst: "c5", DstPort: 9,
		Size: 8192, Interval: 30 * time.Millisecond}).Run()
	path := core.NewPath(
		core.ProcessRef{Host: "s1", Process: "rtds"},
		core.ProcessRef{Host: "c5", Process: "client"},
	)
	req := core.Request{Paths: []core.Path{path}, Metrics: []metrics.Metric{metrics.Throughput}}
	hm := hifi.New(h.Mgmt, nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 16}, 1)
	hm.Submit(req)
	hm.Start()
	cm := cots.New(h.Mgmt, "public", 2*time.Second)
	cm.Submit(req)
	cm.Start()
	k.RunUntil(30 * time.Second)

	direct, ok1 := hm.Query(path.ID, metrics.Throughput)
	approx, ok2 := cm.Query(path.ID, metrics.Throughput)
	if !ok1 || !ok2 || !direct.OK() || !approx.OK() {
		t.Fatalf("measurements: %v(%v) %v(%v)", direct, ok1, approx, ok2)
	}
	// The counter path sees app stream + hifi's own bursts + headers, so
	// the approximate figure runs higher; within 2.5x is "agreement" here.
	ratio := approx.Value / direct.Value
	if ratio < 0.5 || ratio > 2.5 {
		t.Fatalf("direct %.3g vs approx %.3g (ratio %.2f)", direct.Value, approx.Value, ratio)
	}
	if direct.Quality != core.QualityDirect || approx.Quality != core.QualityApproximate {
		t.Fatal("quality labels wrong")
	}
}

func TestWholeStackDeterminism(t *testing.T) {
	// Two identical full scenarios (app + monitor + manager + failure)
	// must produce identical reconfiguration timelines.
	run := func() []string {
		k := sim.NewKernel()
		defer k.Close()
		h := topo.BuildHiPerD(k, 1)
		mon := hifi.New(h.Mgmt, nttcp.Config{MsgLen: 2048, InterSend: 10 * time.Millisecond, Count: 8, Timeout: time.Second}, 1)
		s := buildScenario(t, mon, h.Mgmt, k, h)
		k.At(5*time.Second, func() { h.Servers[1].SetUp(false) })
		k.RunUntil(40 * time.Second)
		out := make([]string, 0, len(s.mgr.Reconfigs))
		for _, r := range s.mgr.Reconfigs {
			out = append(out, r.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no reconfigs in deterministic scenario")
	}
	if len(a) != len(b) {
		t.Fatalf("timelines differ in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timelines diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestCascadingFailures(t *testing.T) {
	// Two server hosts die in sequence; both processes must land on
	// distinct spares and the system must end fully fresh.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	mon := hifi.New(h.Mgmt, nttcp.Config{MsgLen: 2048, InterSend: 10 * time.Millisecond, Count: 8, Timeout: time.Second}, 1)
	s := buildScenario(t, mon, h.Mgmt, k, h)
	k.At(5*time.Second, func() { h.Servers[0].SetUp(false) })
	k.At(25*time.Second, func() { h.Servers[2].SetUp(false) })
	k.RunUntil(80 * time.Second)
	p1 := s.placement(t, "rtds-1")
	p3 := s.placement(t, "rtds-3")
	if p1.Incarnation == 0 || p3.Incarnation == 0 {
		t.Fatalf("cascading failover incomplete: %+v %+v (%v)", p1, p3, s.mgr.Reconfigs)
	}
	if p1.Host == p3.Host {
		t.Fatalf("both processes on one spare: %s", p1.Host)
	}
	if got := s.freshClients(500 * time.Millisecond); got != 9 {
		t.Fatalf("after cascade: %d/9 clients fresh", got)
	}
}

func TestMonitorSurvivesTopologyChurn(t *testing.T) {
	// Paths are resubmitted as placements move; the monitor must keep
	// serving queries for the new paths and never panic on stale ones.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	mon := hifi.New(h.Mgmt, nttcp.Config{MsgLen: 1024, InterSend: 5 * time.Millisecond, Count: 4, Timeout: 500 * time.Millisecond}, 1)
	mon.Start()
	refs := func(hosts ...netsim.Addr) []core.ProcessRef {
		out := make([]core.ProcessRef, len(hosts))
		for i, hh := range hosts {
			out[i] = core.ProcessRef{Host: hh, Process: "p"}
		}
		return out
	}
	reqs := []core.Request{
		{Paths: core.CrossProductPaths(refs("s1"), refs("c1", "c2")), Metrics: []metrics.Metric{metrics.Reachability}},
		{Paths: core.CrossProductPaths(refs("s2"), refs("c3", "c4")), Metrics: []metrics.Metric{metrics.Reachability}},
		{Paths: core.CrossProductPaths(refs("s3"), refs("c5", "c6", "c7")), Metrics: []metrics.Metric{metrics.Reachability}},
	}
	for i, req := range reqs {
		req := req
		k.At(time.Duration(i)*5*time.Second, func() { mon.Submit(req) })
	}
	k.RunUntil(20 * time.Second)
	for _, p := range reqs[2].Paths {
		if m, ok := mon.Query(p.ID, metrics.Reachability); !ok || !m.Reached() {
			t.Fatalf("final request path %s: %v %v", p.ID, m, ok)
		}
	}
}
