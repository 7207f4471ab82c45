package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestLinkTimingPlacementIndependent runs the same two hosts and the same
// ping-pong over a link built three ways — inside one network, across two
// networks on one plain kernel, and across two shards of a group whose
// lookahead equals the propagation delay — and requires identical receive
// timestamps and interface counters, with nothing dropped.
func TestLinkTimingPlacementIndependent(t *testing.T) {
	cfg := ATMLink()
	cfg.PropDelay = time.Millisecond

	placements := []struct {
		name  string
		cross bool
		build func(t *testing.T) (na, nb *Network, run func())
	}{
		{"one network", false, func(t *testing.T) (*Network, *Network, func()) {
			k := sim.NewKernel()
			t.Cleanup(k.Close)
			nw := New(k, 1)
			return nw, nw, func() { k.Run() }
		}},
		{"two networks on one kernel", false, func(t *testing.T) (*Network, *Network, func()) {
			k := sim.NewKernel()
			t.Cleanup(k.Close)
			return New(k, 1), New(k, 2), func() { k.Run() }
		}},
		{"two shards", true, func(t *testing.T) (*Network, *Network, func()) {
			g := sim.NewShardGroup(2, cfg.PropDelay)
			t.Cleanup(g.Close)
			return New(g.Shard(0), 1), New(g.Shard(1), 2), func() { g.Run() }
		}},
	}

	type outcome struct {
		RxA, RxB []time.Duration
		IfA, IfB IfaceCounters
	}
	var want outcome
	for i, pl := range placements {
		na, nb, run := pl.build(t)
		a, b := na.NewHost("a"), nb.NewHost("b")
		var l *Link
		if na == nb {
			l = na.NewLink("a-b", a, b, cfg)
		} else {
			l = ConnectShards("a-b", a, b, cfg)
		}
		if l.CrossShard() != pl.cross {
			t.Fatalf("%s: CrossShard = %v, want %v", pl.name, l.CrossShard(), pl.cross)
		}
		// One drop counter per network: the two shards run concurrently.
		var dropsA, dropsB int
		na.OnDrop = func(DropReason, *Packet) { dropsA++ }
		if nb != na {
			nb.OnDrop = func(DropReason, *Packet) { dropsB++ }
		}

		// Each host answers a datagram with one 100 bytes smaller until the
		// size runs out, so every burst bounces a fixed number of times and
		// the replies queue behind each other on the link's transmitters.
		var got outcome
		bounce := func(h *Node, peer Addr, rx *[]time.Duration) {
			sock := h.OpenUDP(9)
			h.Spawn("bounce", func(p *sim.Proc) {
				for {
					pkt, ok := sock.Recv(p, -1)
					if !ok {
						return
					}
					*rx = append(*rx, p.Now())
					if pkt.Size > 100 {
						sock.SendSize(peer, 9, pkt.Size-100)
					}
				}
			})
		}
		bounce(a, "b", &got.RxA)
		bounce(b, "a", &got.RxB)
		tx := a.OpenUDP(0)
		na.K.At(0, func() {
			for _, size := range []int{1200, 800, 500} {
				tx.SendSize("b", 9, size)
			}
		})
		run()

		ifs := l.Ifaces()
		got.IfA, got.IfB = ifs[0].Counters, ifs[1].Counters
		if dropsA+dropsB != 0 {
			t.Fatalf("%s: %d + %d packets dropped", pl.name, dropsA, dropsB)
		}
		if first := cfg.txTime(&Packet{Size: 1200}) + cfg.PropDelay; len(got.RxB) == 0 || got.RxB[0] != first {
			t.Fatalf("%s: first arrival %v, want %v", pl.name, got.RxB, first)
		}
		if n := len(got.RxA) + len(got.RxB); n != 12+8+5 {
			t.Fatalf("%s: %d datagrams received, want 25", pl.name, n)
		}
		if i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s differs from %s:\n got %+v\nwant %+v", pl.name, placements[0].name, got, want)
		}
	}
}
