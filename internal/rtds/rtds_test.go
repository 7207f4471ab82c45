package rtds

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestRadarKinematics(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	r := NewRadar(k, 7, 30, 100*time.Millisecond)
	if len(r.Tracks) != 30 {
		t.Fatalf("tracks = %d", len(r.Tracks))
	}
	x0 := r.Tracks[0].X
	k.RunUntil(time.Second)
	moved := r.Tracks[0].X - x0
	want := r.Tracks[0].VX // 1 second of travel
	if moved == 0 {
		t.Fatal("track did not move")
	}
	if diff := moved - want; diff > 1 || diff < -1 {
		t.Fatalf("moved %.1f m, want %.1f", moved, want)
	}
}

func TestInboundTracksClose(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	r := NewRadar(k, 7, 9, 100*time.Millisecond)
	// Every third target is inbound: closing speed positive and large.
	closing := 0
	for i, tr := range r.Tracks {
		if i%3 == 0 && tr.ClosingSpeed() > 50 {
			closing++
		}
	}
	if closing != 3 {
		t.Fatalf("inbound closing tracks = %d, want 3", closing)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	tracks := []Track{
		{ID: 1, X: 1000, Y: -2000, VX: 100, VY: 50},
		{ID: 2, X: -500, Y: 300, VX: -10, VY: -20},
	}
	b := encodeBatch(42, tracks, 5*time.Second)
	seq, sentAt, got, ok := decodeBatch(b, nil)
	if !ok || seq != 42 || sentAt != 5*time.Second || len(got) != 2 {
		t.Fatalf("decode: %v %v %d %v", seq, sentAt, len(got), ok)
	}
	if got[0] != tracks[0] || got[1] != tracks[1] {
		t.Fatalf("tracks round trip: %+v", got)
	}
}

func TestBatchCapsAtMessageLength(t *testing.T) {
	many := make([]Track, 500)
	b := encodeBatch(1, many, 0)
	if len(b) > UpdateLen {
		t.Fatalf("batch %d bytes exceeds L=%d", len(b), UpdateLen)
	}
	_, _, got, ok := decodeBatch(b, nil)
	if !ok || len(got) == 0 || len(got) >= 500 {
		t.Fatalf("capped batch decode: %d tracks, %v", len(got), ok)
	}
}

// TestDecodeBatchRejectsMalformed: the wire count is 32 bits from outside;
// a decode that presizes from it must check it against the bytes present.
func TestDecodeBatchRejectsMalformed(t *testing.T) {
	two := encodeBatch(7, make([]Track, 2), time.Second)
	withCount := func(b []byte, count uint32) []byte {
		out := append([]byte(nil), b...)
		binary.BigEndian.PutUint32(out[4:8], count)
		return out
	}
	for _, tc := range []struct {
		name   string
		b      []byte
		ok     bool
		tracks int
	}{
		{"empty", nil, false, 0},
		{"short header", two[:15], false, 0},
		{"header only, zero count", withCount(two[:16], 0), true, 0},
		{"zero count with trailing bytes", withCount(two, 0), true, 0},
		{"exact", two, true, 2},
		{"truncated mid-track", two[:len(two)-1], false, 0},
		{"truncated to one track", two[:16+trackWire], false, 0},
		{"count one past the bytes", withCount(two, 3), false, 0},
		{"count 2^32-1", withCount(two, math.MaxUint32), false, 0},
		{"count below the bytes", withCount(two, 1), true, 1},
	} {
		scratch := make([]Track, 1, 4)
		_, _, got, ok := decodeBatch(tc.b, scratch)
		if ok != tc.ok || len(got) != tc.tracks {
			t.Errorf("%s: ok=%v tracks=%d, want ok=%v tracks=%d", tc.name, ok, len(got), tc.ok, tc.tracks)
		}
		if !ok && got != nil {
			t.Errorf("%s: failed decode returned tracks", tc.name)
		}
	}
}

// TestDecodeBatchReusesScratch: one scratch across batches of different
// sizes — a long batch, then a short one, then a long one again — never
// shows a track, or a field, of an earlier batch.
func TestDecodeBatchReusesScratch(t *testing.T) {
	mk := func(n int, base uint32) []Track {
		out := make([]Track, n)
		for i := range out {
			f := float64(base) + float64(i)
			out[i] = Track{ID: base + uint32(i), X: f, Y: -f, VX: 2 * f, VY: -2 * f}
		}
		return out
	}
	var scratch []Track
	for round, in := range [][]Track{mk(5, 100), mk(2, 200), mk(0, 300), mk(9, 400), mk(3, 500)} {
		// Fields the wire does not carry must not survive from a previous
		// decode into the same slots.
		full := scratch[:cap(scratch)]
		for i := range full {
			full[i].UpdatedAt = time.Hour
		}
		_, _, got, ok := decodeBatch(encodeBatch(uint32(round+1), in, 0), scratch)
		if !ok || len(got) != len(in) {
			t.Fatalf("round %d: ok=%v, %d tracks, want %d", round, ok, len(got), len(in))
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("round %d track %d: %+v, want %+v", round, i, got[i], in[i])
			}
		}
		scratch = got
	}
	// A failed decode hands nothing back, so the caller's scratch survives.
	if _, _, got, ok := decodeBatch([]byte{1, 2, 3}, scratch); ok || got != nil || cap(scratch) < 9 {
		t.Fatalf("failed decode: ok=%v got=%v cap(scratch)=%d", ok, got, cap(scratch))
	}
}

// TestClientUpdateAllocatesNothing: with the scratch warm and no new
// engagement to log, consuming an update message costs no allocation.
func TestClientUpdateAllocatesNothing(t *testing.T) {
	c := &Client{EngageRange: 40_000, engaged: make(map[uint32]bool)}
	tracks := make([]Track, 40)
	for i := range tracks {
		tracks[i] = Track{ID: uint32(i + 1), X: 10_000, Y: 0, VX: -300}
	}
	payload := encodeBatch(1, tracks, 0)
	c.update(time.Second, payload) // warm-up: sizes the scratch, engages all 40
	if len(c.Engagements) != 40 {
		t.Fatalf("warm-up engaged %d tracks, want 40", len(c.Engagements))
	}
	if n := testing.AllocsPerRun(100, func() { c.update(2*time.Second, payload) }); n != 0 {
		t.Fatalf("client update allocates %v objects per message, want 0", n)
	}
	// A malformed message keeps the scratch: the next good one is still free.
	c.update(3*time.Second, payload[:20])
	if n := testing.AllocsPerRun(100, func() { c.update(4*time.Second, payload) }); n != 0 {
		t.Fatalf("after a malformed message an update allocates %v objects, want 0", n)
	}
}

func TestDistributionOverTestbed(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	radar := NewRadar(k, 7, 40, 100*time.Millisecond)
	StartServer(h.Servers[0], radar, []netsim.Addr{"c1", "c5"})
	c1 := StartClient(h.Clients[0])
	c5 := StartClient(h.Clients[4])
	k.RunUntil(3 * time.Second)
	// 3s / 30ms = 100 updates to each client.
	if c1.UpdatesReceived < 95 || c5.UpdatesReceived < 95 {
		t.Fatalf("updates: c1=%d c5=%d, want ≈100", c1.UpdatesReceived, c5.UpdatesReceived)
	}
	if c1.LastLatency <= 0 || c1.LastLatency > 50*time.Millisecond {
		t.Fatalf("update latency = %v", c1.LastLatency)
	}
	if c1.Staleness(k.Now()) > 100*time.Millisecond {
		t.Fatalf("staleness = %v", c1.Staleness(k.Now()))
	}
}

func TestClientsEngageInboundHostiles(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	radar := NewRadar(k, 7, 30, 100*time.Millisecond)
	StartServer(h.Servers[0], radar, []netsim.Addr{"c1"})
	c := StartClient(h.Clients[0])
	// Inbound targets at 50-200km closing at 100-600 m/s: within 600
	// virtual seconds several cross the 40 km engagement radius.
	k.RunUntil(600 * time.Second)
	if len(c.Engagements) == 0 {
		t.Fatal("no engagements after 10 minutes of inbound raids")
	}
	seen := map[uint32]bool{}
	for _, e := range c.Engagements {
		if seen[e.TrackID] {
			t.Fatalf("track %d engaged twice", e.TrackID)
		}
		seen[e.TrackID] = true
		if e.Range > c.EngageRange {
			t.Fatalf("engaged at %.0f m, beyond %v", e.Range, c.EngageRange)
		}
	}
}

func TestServerStopCeasesTraffic(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	radar := NewRadar(k, 7, 10, 100*time.Millisecond)
	s := StartServer(h.Servers[0], radar, []netsim.Addr{"c1"})
	c := StartClient(h.Clients[0])
	k.RunUntil(time.Second)
	s.Stop()
	k.RunUntil(1100 * time.Millisecond) // let the loop observe the flag
	got := c.UpdatesReceived
	k.RunUntil(3 * time.Second)
	if c.UpdatesReceived > got+1 {
		t.Fatalf("updates kept flowing after stop: %d -> %d", got, c.UpdatesReceived)
	}
}

func TestGapDetectionOnLoss(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 3)
	srv := nw.NewHost("srv")
	cli := nw.NewHost("cli")
	cfg := netsim.Ethernet10()
	cfg.LossProb = 0.2
	seg := nw.NewSegment("lossy", cfg)
	seg.Attach(srv)
	seg.Attach(cli)
	radar := NewRadar(k, 7, 10, 100*time.Millisecond)
	StartServer(srv, radar, []netsim.Addr{"cli"})
	c := StartClient(cli)
	k.RunUntil(10 * time.Second)
	if c.Gaps == 0 {
		t.Fatal("20% loss produced no sequence gaps")
	}
	if c.UpdatesReceived == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestFailoverRestartOnNewHost(t *testing.T) {
	// The §5.1 survivability scenario end to end at the app layer: server
	// host dies, a new instance resumes on a spare, clients keep getting
	// track data.
	k := sim.NewKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 1)
	radar := NewRadar(k, 7, 20, 100*time.Millisecond)
	s1 := StartServer(h.Servers[0], radar, []netsim.Addr{"c1"})
	c := StartClient(h.Clients[0])
	k.At(2*time.Second, func() {
		h.Servers[0].SetUp(false)
		s1.Stop()
	})
	k.At(3*time.Second, func() {
		StartServer(h.Servers[1], radar, []netsim.Addr{"c1"})
	})
	k.RunUntil(6 * time.Second)
	// Outage 2s-3s; after restart the picture freshens again.
	if c.Staleness(k.Now()) > 100*time.Millisecond {
		t.Fatalf("staleness after failover = %v", c.Staleness(k.Now()))
	}
	if c.UpdatesReceived < 150 {
		t.Fatalf("updates = %d", c.UpdatesReceived)
	}
}
