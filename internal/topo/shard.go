package topo

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Partition assigns weighted items (regions, LANs) to shards with the
// longest-processing-time greedy rule: repeatedly place the heaviest
// unassigned item on the least-loaded shard. Ties break toward the lower
// index on both sides, so the assignment is a pure function of its inputs.
// The result maps item index to shard number.
func Partition(weights []float64, shards int) []int {
	if shards < 1 {
		panic("topo: Partition needs at least one shard")
	}
	assign := make([]int, len(weights))
	load := make([]float64, shards)
	// Order item indices by descending weight (stable: index breaks ties).
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j], order[j-1]
			if weights[a] > weights[b] || (weights[a] == weights[b] && a < b) {
				order[j], order[j-1] = order[j-1], order[j]
			} else {
				break
			}
		}
	}
	for _, item := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[item] = best
		load[best] += weights[item]
	}
	return assign
}

// WANPropDelay is the one-way latency of the inter-region links in a
// ShardedScaled system. It is fixed — independent of shard count — so the
// same topology is built no matter how the regions are partitioned, and it
// is the natural lookahead for the shard group: no cross-region (and hence
// no cross-shard) influence travels faster than the WAN.
const WANPropDelay = 2 * time.Millisecond

// WANLink returns the inter-region point-to-point medium: a T3-class line
// whose propagation delay dominates, as §3's wide-area tier assumes.
func WANLink() netsim.MediumConfig {
	return netsim.MediumConfig{
		RateBps:   45_000_000,
		PropDelay: WANPropDelay,
		QueueCap:  256,
	}
}

// Region is one administrative domain of a ShardedScaled system: a hub
// router fronting an Ethernet LAN of servers, clients, and a management
// host, all living in one network on one shard.
type Region struct {
	Index   int
	Shard   int
	Net     *netsim.Network
	Hub     *netsim.Node
	LAN     *netsim.SharedSegment
	Servers []*netsim.Node
	Clients []*netsim.Node
	Mgmt    *netsim.Node
}

// ServerRefs returns the region's server pool as process references.
func (r *Region) ServerRefs() []core.ProcessRef {
	refs := make([]core.ProcessRef, len(r.Servers))
	for i, s := range r.Servers {
		refs[i] = core.ProcessRef{Host: s.Name, Process: "rtds"}
	}
	return refs
}

// ClientRefs returns the region's client pool as process references.
func (r *Region) ClientRefs() []core.ProcessRef {
	refs := make([]core.ProcessRef, len(r.Clients))
	for i, c := range r.Clients {
		refs[i] = core.ProcessRef{Host: c.Name, Process: "client"}
	}
	return refs
}

// ShardedScaled is the partitioned form of Scaled: regions connected by a
// full mesh of WAN links, with each region's network living on the shard
// the partitioner chose. With a 1-shard group it is the same topology run
// on the plain kernel loop.
type ShardedScaled struct {
	Group   *sim.ShardGroup
	Regions []*Region
	Assign  []int // region index -> shard
	WAN     []*netsim.Link
}

// BuildShardedScaled constructs `regions` regions of serversPer+clientsPer
// hosts each on the group's shards. Node names are globally unique
// (g<region>-…) because routing across WAN links resolves by name. The
// group's lookahead must not exceed WANPropDelay.
func BuildShardedScaled(g *sim.ShardGroup, seed int64, regions, serversPer, clientsPer int) *ShardedScaled {
	if regions < 1 {
		panic("topo: BuildShardedScaled needs at least one region")
	}
	weights := make([]float64, regions)
	for i := range weights {
		// Regions are homogeneous here; weight by station count anyway so a
		// future heterogeneous builder inherits a sensible rule.
		weights[i] = float64(serversPer + clientsPer + 2)
	}
	s := &ShardedScaled{Group: g, Assign: Partition(weights, g.Shards())}
	for r := 0; r < regions; r++ {
		shard := s.Assign[r]
		nw := netsim.New(g.Shard(shard), seed+int64(r))
		reg := &Region{Index: r, Shard: shard, Net: nw}
		pre := fmt.Sprintf("g%d", r+1)
		reg.Hub = nw.NewRouter(netsim.Addr(pre+"-hub"), 100*time.Microsecond)
		reg.LAN = nw.NewSegment(pre+"-lan", netsim.Ethernet100())
		reg.LAN.Attach(reg.Hub)
		for i := 1; i <= serversPer; i++ {
			h := nw.NewHost(netsim.Addr(fmt.Sprintf("%s-s%d", pre, i)))
			reg.LAN.Attach(h)
			h.SetDefaultRoute(reg.Hub.Name)
			reg.Servers = append(reg.Servers, h)
		}
		for i := 1; i <= clientsPer; i++ {
			h := nw.NewHost(netsim.Addr(fmt.Sprintf("%s-c%d", pre, i)))
			reg.LAN.Attach(h)
			h.SetDefaultRoute(reg.Hub.Name)
			reg.Clients = append(reg.Clients, h)
		}
		reg.Mgmt = nw.NewHost(netsim.Addr(pre + "-mgmt"))
		reg.LAN.Attach(reg.Mgmt)
		reg.Mgmt.SetDefaultRoute(reg.Hub.Name)
		s.Regions = append(s.Regions, reg)
	}
	// Full hub mesh: every region pair gets a WAN link; cut edges (pairs the
	// partitioner split across shards) become cross-shard channels for free.
	for i := 0; i < regions; i++ {
		for j := i + 1; j < regions; j++ {
			l := netsim.ConnectShards(fmt.Sprintf("wan-g%d-g%d", i+1, j+1),
				s.Regions[i].Hub, s.Regions[j].Hub, WANLink())
			s.WAN = append(s.WAN, l)
		}
	}
	// Routing: each hub reaches a foreign region's stations via that
	// region's hub, which is a direct neighbor over the mesh.
	for i, ri := range s.Regions {
		for j, rj := range s.Regions {
			if i == j {
				continue
			}
			for _, n := range rj.Net.Nodes() {
				if n != rj.Hub {
					ri.Hub.AddRoute(n.Name, rj.Hub.Name)
				}
			}
		}
	}
	return s
}

// CutEdges reports how many WAN links cross a shard boundary under the
// current assignment.
func (s *ShardedScaled) CutEdges() int {
	n := 0
	for _, l := range s.WAN {
		if l.CrossShard() {
			n++
		}
	}
	return n
}

// CrossRegionPaths returns one path set for monitoring: each region's
// servers to the next region's clients (ring order), so every path crosses
// a WAN link — and, when regions land on different shards, a shard
// boundary.
func (s *ShardedScaled) CrossRegionPaths() []core.Path {
	var out []core.Path
	for i, r := range s.Regions {
		next := s.Regions[(i+1)%len(s.Regions)]
		out = append(out, core.CrossProductPaths(r.ServerRefs(), next.ClientRefs())...)
	}
	return out
}
