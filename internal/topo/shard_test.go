package topo

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// checkRoundRobin builds regions regions on a fresh n-shard group and
// checks that region r lives on shard r % n, in Assign, in Region.Shard
// and in the kernel its network runs on, and that the per-shard region
// counts differ by at most one.
func checkRoundRobin(t *testing.T, n, regions int) {
	t.Helper()
	g := sim.NewShardGroup(n, WANPropDelay)
	defer g.Close()
	s := BuildShardedScaled(g, 1, regions, 1, 1)
	count := make([]int, n)
	for r, reg := range s.Regions {
		want := r % n
		if s.Assign[r] != want || reg.Shard != want || reg.Net.K != g.Shard(want) {
			t.Fatalf("%d shards, %d regions: region %d on Assign %d, Shard %d; want shard %d and its kernel",
				n, regions, r, s.Assign[r], reg.Shard, want)
		}
		count[want]++
	}
	lo, hi := count[0], count[0]
	for _, c := range count {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi-lo > 1 {
		t.Fatalf("%d shards, %d regions: per-shard counts %v differ by more than one", n, regions, count)
	}
}

// TestPartitionBalancesAndDeterministic: BuildShardedScaled deals regions
// round-robin, so every shard count from 1 to 8 gets a fixed, balanced
// assignment.
func TestPartitionBalancesAndDeterministic(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for _, regions := range []int{1, n - 1, n, n + 1, 2*n + 3} {
			if regions >= 1 {
				checkRoundRobin(t, n, regions)
			}
		}
	}
}

// TestPartitionSingleShard: one shard takes every region.
func TestPartitionSingleShard(t *testing.T) {
	checkRoundRobin(t, 1, 5)
}

// buildAndPing builds R regions on the given group, sends one datagram from
// every region's first server to the next region's first client, runs, and
// returns each sink's (received, lastAt) as strings for comparison.
func buildAndPing(t *testing.T, g *sim.ShardGroup, regions int) []string {
	t.Helper()
	s := BuildShardedScaled(g, 42, regions, 2, 3)
	sinks := make([]*netsim.Sink, regions)
	for i, r := range s.Regions {
		next := s.Regions[(i+1)%regions]
		sinks[(i+1)%regions] = netsim.NewSink(next.Clients[0], 9)
		src := r.Servers[0]
		sock := src.OpenUDP(0)
		dst := next.Clients[0].Name
		src.Network().K.After(time.Duration(i)*time.Millisecond, func() {
			sock.SendSize(dst, 9, 200)
		})
	}
	g.Shard(0).RunUntil(200 * time.Millisecond)
	out := make([]string, regions)
	for i, sk := range sinks {
		out[i] = fmt.Sprintf("recv=%d at=%v", sk.Received, sk.LastAt)
	}
	return out
}

// TestShardedScaledCrossShardTraffic checks that cross-region datagrams
// traverse WAN links across shard boundaries, and that packet timing is
// identical at 1, 2, and 3 shards — the shard-transparency contract.
func TestShardedScaledCrossShardTraffic(t *testing.T) {
	const regions = 3
	var results [][]string
	for _, shards := range []int{1, 2, 3} {
		g := sim.NewShardGroup(shards, WANPropDelay)
		res := buildAndPing(t, g, regions)
		g.Close()
		for i, r := range res {
			if r[:6] != "recv=1" {
				t.Fatalf("%d shards: sink %d: %s", shards, i, r)
			}
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if fmt.Sprint(results[i]) != fmt.Sprint(results[0]) {
			t.Fatalf("timing differs across shard counts:\n1 shard: %v\n%d shards: %v",
				results[0], i+1, results[i])
		}
	}
}

// TestShardedScaledCutEdges: with 4 regions on 2 shards the full mesh of 6
// WAN links must have at least one cut edge, and cross-shard traffic must
// produce cross-shard messages in the group.
func TestShardedScaledCutEdges(t *testing.T) {
	g := sim.NewShardGroup(2, WANPropDelay)
	defer g.Close()
	s := BuildShardedScaled(g, 7, 4, 1, 1)
	if got := s.CutEdges(); got != 4 {
		// 2+2 split: 2*2 cross pairs.
		t.Fatalf("cut edges = %d, want 4", got)
	}
	sink := netsim.NewSink(s.Regions[1].Clients[0], 9)
	src := s.Regions[0].Servers[0]
	sock := src.OpenUDP(0)
	src.Network().K.At(0, func() { sock.SendSize(s.Regions[1].Clients[0].Name, 9, 100) })
	g.Run()
	if sink.Received != 1 {
		t.Fatalf("cross-shard datagram not delivered (received %d)", sink.Received)
	}
	if g.CrossShardMessages() == 0 {
		t.Fatal("no cross-shard messages despite cut-edge traffic")
	}
}

func TestShardedScaledPathsAndHosts(t *testing.T) {
	g := sim.NewShardGroup(1, WANPropDelay)
	defer g.Close()
	s := BuildShardedScaled(g, 11, 4, 2, 3)
	hosts := 0
	for _, r := range s.Regions {
		hosts += len(r.Servers) + len(r.Clients)
	}
	if hosts != 20 {
		t.Fatalf("hosts = %d, want 20", hosts)
	}
	if got := len(s.CrossRegionPaths()); got != 4*2*3 {
		t.Fatalf("cross-region paths = %d, want 24", got)
	}
	if got := len(s.WAN); got != 6 {
		t.Fatalf("WAN links = %d, want 6", got)
	}
}

// TestConnectShardsLookaheadGuard: a WAN link faster than the group's
// lookahead is a construction error.
func TestConnectShardsLookaheadGuard(t *testing.T) {
	g := sim.NewShardGroup(2, 10*WANPropDelay)
	defer g.Close()
	na := netsim.New(g.Shard(0), 1)
	nb := netsim.New(g.Shard(1), 2)
	a := na.NewHost("a")
	b := nb.NewHost("b")
	defer func() {
		if recover() == nil {
			t.Fatal("ConnectShards accepted PropDelay below lookahead")
		}
	}()
	netsim.ConnectShards("too-fast", a, b, WANLink())
}
