// Package topo builds the simulated testbeds the experiments run on: the
// 30-node HiPer-D configuration of §1 and §5.1 (ATM, FDDI and Ethernet
// networks; a 3-server and a 9-client processor pool), and parameterised
// scaled systems up to the §3 system model (10² networks, 10³ computers).
package topo

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// HiPerD is the simulated HiPer-D testbed.
//
// Topology:
//
//	servers s1..s3, routers r1,r2 and misc workstations on a 100 Mb/s FDDI
//	backbone; clients c1..c4 behind a 155 Mb/s ATM switch reached via r1;
//	clients c5..c9, the management station, the RMON probe host and more
//	workstations on a shared 10 Mb/s Ethernet behind r2.
type HiPerD struct {
	Net *netsim.Network

	FDDI *netsim.SharedSegment
	Eth  *netsim.SharedSegment
	ATM  *netsim.Node // the switch

	Servers []*netsim.Node // s1..s3 (RTDS server pool, S=3)
	Clients []*netsim.Node // c1..c9 (client pool, C=9)
	R1, R2  *netsim.Node
	Mgmt    *netsim.Node // management station (SunNet-Manager stand-in)
	Probe   *netsim.Node // RMON probe host on the Ethernet
	Misc    []*netsim.Node
}

// BuildHiPerD constructs the testbed on a fresh network.
func BuildHiPerD(k *sim.Kernel, seed int64) *HiPerD {
	nw := netsim.New(k, seed)
	h := &HiPerD{Net: nw}

	h.FDDI = nw.NewSegment("fddi-backbone", netsim.FDDI())
	h.Eth = nw.NewSegment("eth-lan", netsim.Ethernet10())
	h.ATM = nw.NewSwitch("atm", 10*time.Microsecond)
	h.R1 = nw.NewRouter("r1", 100*time.Microsecond)
	h.R2 = nw.NewRouter("r2", 100*time.Microsecond)

	h.FDDI.Attach(h.R1)
	h.FDDI.Attach(h.R2)
	nw.NewLink("r1-atm", h.R1, h.ATM, netsim.ATMLink())
	h.Eth.Attach(h.R2)

	// Server pool on the backbone.
	for i := 1; i <= 3; i++ {
		s := nw.NewHost(netsim.Addr(fmt.Sprintf("s%d", i)))
		h.FDDI.Attach(s)
		h.Servers = append(h.Servers, s)
	}
	// Client pool: c1..c4 on ATM, c5..c9 on the Ethernet.
	for i := 1; i <= 9; i++ {
		c := nw.NewHost(netsim.Addr(fmt.Sprintf("c%d", i)))
		if i <= 4 {
			nw.NewLink(fmt.Sprintf("c%d-atm", i), c, h.ATM, netsim.ATMLink())
			c.SetDefaultRoute("atm")
		} else {
			h.Eth.Attach(c)
			c.SetDefaultRoute("r2")
		}
		h.Clients = append(h.Clients, c)
	}

	h.Mgmt = nw.NewHost("mgmt")
	h.Eth.Attach(h.Mgmt)
	h.Mgmt.SetDefaultRoute("r2")

	h.Probe = nw.NewHost("probe")
	h.Eth.Attach(h.Probe)
	h.Probe.SetDefaultRoute("r2")

	// Misc workstations to reach the testbed's ~30 nodes.
	for i := 1; i <= 6; i++ {
		w := nw.NewHost(netsim.Addr(fmt.Sprintf("w-fddi-%d", i)))
		h.FDDI.Attach(w)
		h.Misc = append(h.Misc, w)
	}
	for i := 1; i <= 4; i++ {
		w := nw.NewHost(netsim.Addr(fmt.Sprintf("w-eth-%d", i)))
		h.Eth.Attach(w)
		w.SetDefaultRoute("r2")
		h.Misc = append(h.Misc, w)
	}
	for i := 1; i <= 3; i++ {
		w := nw.NewHost(netsim.Addr(fmt.Sprintf("w-atm-%d", i)))
		nw.NewLink(fmt.Sprintf("w-atm-%d-link", i), w, h.ATM, netsim.ATMLink())
		w.SetDefaultRoute("atm")
		h.Misc = append(h.Misc, w)
	}

	h.wireRoutes()
	return h
}

// wireRoutes installs static routes: FDDI hosts route per-destination via
// r1 (ATM) or r2 (Ethernet); the routers know both sides.
func (h *HiPerD) wireRoutes() {
	atmSide := func(name netsim.Addr) bool {
		for _, ifc := range h.ATM.Ifaces() {
			for _, other := range ifc.Medium().Ifaces() {
				if other.Node().Name == name {
					return true
				}
			}
		}
		return false
	}
	ethSide := make(map[netsim.Addr]bool)
	for _, ifc := range h.Eth.Ifaces() {
		ethSide[ifc.Node().Name] = true
	}
	for _, n := range h.Net.Nodes() {
		switch n.Name {
		case "r1":
			// ATM clients are via the switch (direct neighbor); the rest
			// of the world is on FDDI or behind r2.
			n.SetDefaultRoute("r2")
			for _, c := range h.Clients[:4] {
				n.AddRoute(c.Name, "atm")
			}
			for _, w := range h.Misc {
				if atmSide(w.Name) {
					n.AddRoute(w.Name, "atm")
				}
			}
		case "r2":
			n.SetDefaultRoute("r1")
		case "atm":
			n.SetDefaultRoute("r1")
		default:
			if ethSide[n.Name] || atmSide(n.Name) {
				continue // already defaulted to their router/switch
			}
			// FDDI host: pick the right router per destination.
			for _, c := range h.Clients[:4] {
				n.AddRoute(c.Name, "r1")
			}
			n.SetDefaultRoute("r2")
		}
	}
}

// ServerRefs returns the RTDS server pool as process references.
func (h *HiPerD) ServerRefs() []core.ProcessRef {
	refs := make([]core.ProcessRef, len(h.Servers))
	for i, s := range h.Servers {
		refs[i] = core.ProcessRef{Host: s.Name, Process: "rtds"}
	}
	return refs
}

// ClientRefs returns the client pool as process references.
func (h *HiPerD) ClientRefs() []core.ProcessRef {
	refs := make([]core.ProcessRef, len(h.Clients))
	for i, c := range h.Clients {
		refs[i] = core.ProcessRef{Host: c.Name, Process: "client"}
	}
	return refs
}

// PathList returns the Figure 4(b) path list: every server to every client,
// C·S = 27 paths.
func (h *HiPerD) PathList() []core.Path {
	return core.CrossProductPaths(h.ServerRefs(), h.ClientRefs())
}

// Scaled is a parameterised system: a FDDI backbone of routers, each
// serving one Ethernet LAN of hosts — the §3 model scaled by arguments.
type Scaled struct {
	Net      *netsim.Network
	Backbone *netsim.SharedSegment
	LANs     []*netsim.SharedSegment
	Routers  []*netsim.Node
	Hosts    []*netsim.Node // all LAN hosts, LAN-major order
	Mgmt     *netsim.Node   // management station on the backbone
}

// BuildScaled constructs networks LANs with hostsPerNet hosts each.
func BuildScaled(k *sim.Kernel, seed int64, networks, hostsPerNet int) *Scaled {
	nw := netsim.New(k, seed)
	s := &Scaled{Net: nw}
	s.Backbone = nw.NewSegment("backbone", netsim.FDDI())
	s.Mgmt = nw.NewHost("mgmt")
	s.Backbone.Attach(s.Mgmt)
	for i := 0; i < networks; i++ {
		r := nw.NewRouter(netsim.Addr(fmt.Sprintf("r%d", i+1)), 100*time.Microsecond)
		s.Backbone.Attach(r)
		lan := nw.NewSegment(fmt.Sprintf("lan%d", i+1), netsim.Ethernet10())
		lan.Attach(r)
		s.Routers = append(s.Routers, r)
		s.LANs = append(s.LANs, lan)
		for j := 0; j < hostsPerNet; j++ {
			hst := nw.NewHost(netsim.Addr(fmt.Sprintf("h%d-%d", i+1, j+1)))
			lan.Attach(hst)
			hst.SetDefaultRoute(r.Name)
			s.Hosts = append(s.Hosts, hst)
		}
	}
	// Backbone routing: each router knows its own LAN's hosts directly;
	// cross-LAN traffic goes router-to-router over the backbone.
	for i, r := range s.Routers {
		for j, other := range s.Routers {
			if i == j {
				continue
			}
			for h := 0; h < hostsPerNet; h++ {
				r.AddRoute(netsim.Addr(fmt.Sprintf("h%d-%d", j+1, h+1)), other.Name)
			}
		}
	}
	// The management station reaches any host via its LAN router.
	for i := range s.LANs {
		for j := 0; j < hostsPerNet; j++ {
			s.Mgmt.AddRoute(netsim.Addr(fmt.Sprintf("h%d-%d", i+1, j+1)), s.Routers[i].Name)
		}
	}
	return s
}

// TwoHosts is the minimal fixture: a and b on one shared Ethernet.
func TwoHosts(k *sim.Kernel, seed int64) (*netsim.Network, *netsim.Node, *netsim.Node, *netsim.SharedSegment) {
	nw := netsim.New(k, seed)
	a := nw.NewHost("a")
	b := nw.NewHost("b")
	seg := nw.NewSegment("lan", netsim.Ethernet10())
	seg.Attach(a)
	seg.Attach(b)
	return nw, a, b, seg
}
