// Command hiperd runs the full survivability scenario of §1 and §5.1: the
// RTDS combat application on the 30-node testbed, a network resource
// monitor watching every server->client path, and a resource manager that
// reconfigures the system when a host dies. It narrates the timeline.
//
//	hiperd -fail s2 -failat 10s -duration 40s
//	hiperd -monitor hybrid -fail c1
//	hiperd -duration 400s -cpuprofile hiperd.prof   # the benchmark's hiperd-rtds-hifi run, profiled
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/hifi"
	"repro/internal/hybrid"
	"repro/internal/manager"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/rtds"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

func main() {
	monImpl := flag.String("monitor", "hifi", "monitor implementation: hifi | cots | hybrid")
	fail := flag.String("fail", "s2", "host to fail")
	failAt := flag.Duration("failat", 10*time.Second, "failure time")
	duration := flag.Duration("duration", 40*time.Second, "virtual time to run")
	telem := flag.String("telemetry", "", "dump the stack's self-telemetry after the run (text | json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run (set-up excluded) to this file")
	flag.Parse()
	if *telem != "" && *telem != "text" && *telem != "json" {
		fmt.Fprintf(os.Stderr, "hiperd: unknown -telemetry format %q (use text or json)\n", *telem)
		os.Exit(2)
	}

	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	say := func(format string, args ...any) {
		fmt.Printf("%10v  ", k.Now().Truncate(time.Millisecond))
		fmt.Printf(format+"\n", args...)
	}

	// Application: radar + 3 servers each serving 3 clients.
	radar := rtds.NewRadar(k, 7, 60, 100*time.Millisecond)
	clients := make(map[netsim.Addr]*rtds.Client)
	for _, c := range h.Clients {
		clients[c.Name] = rtds.StartClient(c)
	}
	servers := make(map[string]*rtds.Server)
	serveSet := func(process string, host *netsim.Node, cl []netsim.Addr) {
		servers[process] = rtds.StartServer(host, radar, cl)
	}
	clientSets := [][]netsim.Addr{
		{"c1", "c2", "c3"}, {"c4", "c5", "c6"}, {"c7", "c8", "c9"},
	}
	for i, s := range h.Servers {
		serveSet(fmt.Sprintf("rtds-%d", i+1), s, clientSets[i])
	}

	// Monitor.
	burst := nttcp.Config{MsgLen: 8192, InterSend: 30 * time.Millisecond, Count: 8, Timeout: time.Second}
	var mon core.Monitor
	switch *monImpl {
	case "hifi":
		mon = hifi.New(h.Mgmt, burst, 1)
	case "cots":
		mon = cots.New(h.Mgmt, "public", 2*time.Second)
	case "hybrid":
		mon = hybrid.New(h.Mgmt, "public", hybrid.Config{PollInterval: 2 * time.Second, NTTCP: burst})
	default:
		fmt.Fprintf(os.Stderr, "hiperd: unknown monitor %q\n", *monImpl)
		os.Exit(2)
	}
	// Self-telemetry: every monitor implementation exposes the same
	// EnableTelemetry hook; -telemetry instruments the whole stack.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if *telem != "" {
		reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer(*monImpl, 2048)
		type telemetric interface {
			EnableTelemetry(*telemetry.Registry, *telemetry.Tracer)
		}
		mon.(telemetric).EnableTelemetry(reg, tracer)
		reg.CounterFunc("sim.proc_switches", k.ProcSwitches)
	}
	type startable interface{ Start() }
	mon.(startable).Start()

	// Resource manager with spare hosts in both pools.
	mgr := manager.New(h.Mgmt, mon, manager.Policy{
		RequireReachable: true, Grace: 2, EvalInterval: time.Second,
	})
	if reg != nil {
		mgr.EnableTelemetry(reg, "manager")
	}
	mgr.DefinePool("server", []netsim.Addr{"s1", "s2", "s3", "w-fddi-1", "w-fddi-2", "w-fddi-3"})
	mgr.DefinePool("client", []netsim.Addr{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9"})
	for i := 1; i <= 3; i++ {
		mgr.Place(fmt.Sprintf("rtds-%d", i), "server")
	}
	for i := 1; i <= 9; i++ {
		mgr.Place(fmt.Sprintf("client-%d", i), "client")
	}
	mgr.OnReconfig = func(r manager.Reconfig) {
		say("RESOURCE MANAGER: %s fails policy — restarting on %s (%s)", r.Process, r.To, r.Reason)
		if old, ok := servers[r.Process]; ok {
			old.Stop()
			newHost := h.Net.Node(r.To)
			idx := int(r.Process[len(r.Process)-1] - '1')
			serveSet(r.Process, newHost, clientSets[idx])
			say("RTDS: %s incarnation resumed on %s, serving %v", r.Process, r.To, clientSets[idx])
		}
	}
	mgr.Start("server", "client")
	say("HiPer-D up: 30 nodes, RTDS on s1-s3 -> c1-c9, %s monitor, resource manager armed", *monImpl)

	// Failure injection.
	k.At(*failAt, func() {
		if n := h.Net.Node(netsim.Addr(*fail)); n != nil {
			n.SetUp(false)
			say("*** FAULT: host %s is down ***", *fail)
		}
	})
	// Timeline for the end-of-run figure.
	timeline := report.Series{Name: "fresh clients"}
	timelineTick := k.Every(time.Second, func() {
		fresh := 0.0
		for _, c := range clients {
			if c.Staleness(k.Now()) < 500*time.Millisecond {
				fresh++
			}
		}
		timeline.Points = append(timeline.Points, report.Point{X: k.Now(), Y: fresh})
	})
	// Periodic status.
	statusTick := k.Every(5*time.Second, func() {
		fresh := 0
		engagements := 0
		for _, c := range clients {
			if c.Staleness(k.Now()) < 500*time.Millisecond {
				fresh++
			}
			engagements += len(c.Engagements)
		}
		say("status: %d/9 clients with fresh track data; %d engagements logged", fresh, engagements)
	})
	stopProfile := profileCPU(*cpuProfile)
	k.RunUntil(*duration)
	stopProfile()
	timelineTick.Stop()
	statusTick.Stop()

	fmt.Println("\n--- final state ---")
	for _, pl := range mgr.Placements() {
		fmt.Printf("  %-10s on %-9s (incarnation %d)\n", pl.Process, pl.Host, pl.Incarnation)
	}
	for _, r := range mgr.Reconfigs {
		fmt.Printf("  reconfig: %s\n", r)
	}
	stale := 0
	for _, c := range clients {
		if c.Staleness(k.Now()) > time.Second {
			stale++
		}
	}
	fmt.Printf("  clients with stale pictures: %d/9\n", stale)
	fmt.Println()
	chart := &report.Chart{
		Title:  fmt.Sprintf("clients with fresh track data over time (fault at %v)", *failAt),
		YLabel: "fresh",
		Series: []report.Series{timeline},
	}
	fmt.Print(chart.String())

	if *telem == "text" {
		fmt.Println("\n--- self-telemetry ---")
		reg.WriteText(os.Stdout)
		fmt.Println()
		tracer.WriteText(os.Stdout)
	} else if *telem == "json" {
		fmt.Print("{\"instruments\": ")
		reg.WriteJSON(os.Stdout)
		fmt.Print(", \"spans\": ")
		tracer.WriteJSON(os.Stdout)
		fmt.Println("}")
	}
}

// profileCPU starts a CPU profile into path and returns the function that
// finishes it; with no path both do nothing.
func profileCPU(path string) (stop func()) {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hiperd: -cpuprofile: %v\n", err)
		os.Exit(2)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hiperd: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
}
