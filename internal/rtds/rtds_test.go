package rtds

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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
		if i%3 == 0 && tr.ClosingSpeed(tr.Range()) > 50 {
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
	b := encodeBatch(nil, 42, tracks, 5*time.Second)
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
	b := encodeBatch(nil, 1, many, 0)
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
	two := encodeBatch(nil, 7, make([]Track, 2), time.Second)
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
		_, _, got, ok := decodeBatch(encodeBatch(nil, uint32(round+1), in, 0), scratch)
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
// engagement to log, consuming an update message costs no allocation —
// whether it repeats the picture the client last classified or brings a
// new one (two pictures alternating, so the picture copy reuses its buffer).
func TestClientUpdateAllocatesNothing(t *testing.T) {
	c := &Client{EngageRange: 40_000, engaged: make(map[uint32]bool)}
	tracks := make([]Track, 40)
	for i := range tracks {
		tracks[i] = Track{ID: uint32(i + 1), X: 10_000, Y: 0, VX: -300}
	}
	payload := encodeBatch(nil, 1, tracks, 0)
	for i := range tracks {
		tracks[i].X = 12_000
	}
	moved := encodeBatch(nil, 1, tracks, 0)
	c.update(time.Second, "s1", payload) // warm-up: sizes the scratch, engages all 40
	if len(c.Engagements) != 40 {
		t.Fatalf("warm-up engaged %d tracks, want 40", len(c.Engagements))
	}
	if n := testing.AllocsPerRun(100, func() { c.update(2*time.Second, "s1", payload) }); n != 0 {
		t.Fatalf("client update of an unchanged picture allocates %v objects per message, want 0", n)
	}
	alternate := func() {
		c.update(2*time.Second, "s1", moved)
		c.update(2*time.Second, "s1", payload)
	}
	if n := testing.AllocsPerRun(100, alternate); n != 0 {
		t.Fatalf("client updates of changed pictures allocate %v objects per pair, want 0", n)
	}
	// A malformed message keeps the scratch: the next good one is still free.
	c.update(3*time.Second, "s1", payload[:20])
	if n := testing.AllocsPerRun(100, alternate); n != 0 {
		t.Fatalf("after a malformed message an update allocates %v objects, want 0", n)
	}
	if len(c.Engagements) != 40 {
		t.Fatalf("re-classifying the same tracks logged %d engagements, want 40", len(c.Engagements))
	}
}

// TestServerEncodeMatchesFreshEncode: a server that rewrites only the header
// of a repeated picture sends the bytes a fresh encode would — on the first
// picture, on repeats, on a re-plot, and in a restarted instance.
func TestServerEncodeMatchesFreshEncode(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	radar := NewRadar(k, 7, 60, 100*time.Millisecond)
	s := &Server{Radar: radar}
	now := time.Duration(0)
	send := func(s *Server, what string) {
		t.Helper()
		now += UpdatePeriod
		s.seq++
		s.encode(now)
		if want := encodeBatch(nil, s.seq, radar.Tracks, now); !bytes.Equal(s.msg, want) {
			t.Fatalf("%s: server sent %d bytes that differ from a fresh encode of %d", what, len(s.msg), len(want))
		}
	}
	send(s, "first picture")
	first := &s.msg[0]
	send(s, "repeated picture")
	send(s, "repeated again")
	radar.step(now)
	send(s, "re-plotted picture")
	send(s, "repeat of the re-plot")
	if &s.msg[0] != first {
		t.Fatal("the server re-allocated its message for a picture of the same size")
	}
	restarted := &Server{Radar: radar}
	send(restarted, "restarted instance")
	radar.step(now)
	send(restarted, "restarted instance, re-plotted")
	send(s, "old instance, re-plotted")
}

// TestDistributionAllocatesNothing runs one server and three clients over
// a lossy Ethernet: once warm, a 30 ms period — radar, encode, three
// SendCopy datagrams, the clients' decisions — allocates nothing. Over the
// whole run each client agrees with an oracleClient fed, by a tap on the
// segment, the payload of every frame that reached it at the instant it did.
func TestDistributionAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 3)
	cfg := netsim.Ethernet100()
	cfg.LossProb = 0.02
	seg := nw.NewSegment("lan", cfg)
	srv := nw.NewHost("srv")
	seg.Attach(srv)
	names := []netsim.Addr{"c1", "c2", "c3"}
	clients := make(map[netsim.Addr]*Client)
	oracles := make(map[netsim.Addr]*oracleClient)
	for _, name := range names {
		h := nw.NewHost(name)
		seg.Attach(h)
		clients[name] = StartClient(h)
		oracles[name] = &oracleClient{EngageRange: 40_000, engaged: make(map[uint32]bool)}
	}
	seg.Tap(func(f netsim.Frame) {
		if o := oracles[f.Pkt.Dst]; o != nil && !f.Err && f.Pkt.DstPort == ClientPort {
			o.update(f.At+cfg.PropDelay, f.Pkt.Src, f.Pkt.Payload)
		}
	})
	radar := NewRadar(k, 7, 60, 100*time.Millisecond)
	StartServer(srv, radar, names)
	k.RunUntil(time.Second)
	period := func() { k.RunUntil(k.Now() + UpdatePeriod) }
	if n := testing.AllocsPerRun(200, period); n != 0 {
		t.Fatalf("a warm distribution period allocates %v objects, want 0", n)
	}
	k.RunUntil(120 * time.Second)
	for _, name := range names {
		c, o := clients[name], oracles[name]
		if c.UpdatesReceived != o.UpdatesReceived || c.Gaps != o.Gaps || !slices.Equal(c.Engagements, o.Engagements) {
			t.Fatalf("%s: %d updates, %d gaps, %d engagements; oracle %d, %d, %d", name,
				c.UpdatesReceived, c.Gaps, len(c.Engagements), o.UpdatesReceived, o.Gaps, len(o.Engagements))
		}
		if c.Gaps == 0 || len(c.Engagements) == 0 || c.UpdatesReceived < 3500 {
			t.Fatalf("%s: %d updates, %d gaps, %d engagements: the run proves nothing", name,
				c.UpdatesReceived, c.Gaps, len(c.Engagements))
		}
	}
}

// TestRestartedServerResetsSequenceBaseline: a server restarted on a new
// host counts from seq 1 again. The client's gap count follows the new
// sequence at once instead of waiting for it to pass the dead server's.
func TestRestartedServerResetsSequenceBaseline(t *testing.T) {
	c := &Client{EngageRange: 40_000, engaged: make(map[uint32]bool)}
	tracks := []Track{{ID: 1, X: 90_000, VY: 200}}
	for seq := uint32(1); seq <= 66; seq++ {
		c.update(time.Duration(seq)*UpdatePeriod, "s1", encodeBatch(nil, seq, tracks, 0))
	}
	for _, seq := range []uint32{1, 2, 4} {
		c.update(time.Duration(66+seq)*UpdatePeriod, "w-fddi-1", encodeBatch(nil, seq, tracks, 0))
	}
	if c.Gaps != 1 || c.LastSeq != 4 {
		t.Fatalf("after the restart: Gaps %d LastSeq %d, want 1 and 4", c.Gaps, c.LastSeq)
	}
}

// oracleClient is Client.update before the picture memo: every update is
// decoded and every track classified, its range computed twice (once in
// process, once inside the closing speed). The memo must be invisible
// beside it.
type oracleClient struct {
	UpdatesReceived int
	LastSeq         uint32
	LastUpdate      time.Duration
	LastLatency     time.Duration
	Gaps            int
	Engagements     []Engagement
	EngageRange     float64

	engaged map[uint32]bool
	tracks  []Track
	sender  netsim.Addr
}

func (c *oracleClient) update(now time.Duration, sender netsim.Addr, payload []byte) {
	seq, sentAt, tracks, ok := decodeBatch(payload, c.tracks)
	if !ok {
		return
	}
	c.tracks = tracks
	if sender != c.sender {
		c.sender = sender
		c.LastSeq = 0
	}
	if c.LastSeq != 0 && seq > c.LastSeq+1 {
		c.Gaps += int(seq - c.LastSeq - 1)
	}
	if seq > c.LastSeq {
		c.LastSeq = seq
	}
	c.UpdatesReceived++
	c.LastUpdate = now
	c.LastLatency = now - sentAt
	for _, t := range tracks {
		r := math.Hypot(t.X, t.Y)
		closing := 0.0
		if d := math.Hypot(t.X, t.Y); d != 0 {
			closing = -(t.X*t.VX + t.Y*t.VY) / d
		}
		if closing > 50 && r < 150_000 && r < c.EngageRange && !c.engaged[t.ID] {
			c.engaged[t.ID] = true
			c.Engagements = append(c.Engagements, Engagement{At: now, TrackID: t.ID, Range: r})
		}
	}
}

// clientPair drives a Client and an oracleClient with the same updates and
// reports the first state in which they differ.
type clientPair struct {
	c *Client
	o *oracleClient
}

func newClientPair() clientPair {
	return clientPair{
		c: &Client{EngageRange: 40_000, engaged: make(map[uint32]bool)},
		o: &oracleClient{EngageRange: 40_000, engaged: make(map[uint32]bool)},
	}
}

func (p clientPair) setRange(r float64) { p.c.EngageRange, p.o.EngageRange = r, r }

func (p clientPair) update(t *testing.T, step int, now time.Duration, sender netsim.Addr, payload []byte) {
	t.Helper()
	p.c.update(now, sender, payload)
	p.o.update(now, sender, payload)
	c, o := p.c, p.o
	if c.UpdatesReceived != o.UpdatesReceived || c.LastSeq != o.LastSeq || c.Gaps != o.Gaps ||
		c.LastUpdate != o.LastUpdate || c.LastLatency != o.LastLatency {
		t.Fatalf("step %d: client updates %d seq %d gaps %d last %v latency %v, oracle %d %d %d %v %v", step,
			c.UpdatesReceived, c.LastSeq, c.Gaps, c.LastUpdate, c.LastLatency,
			o.UpdatesReceived, o.LastSeq, o.Gaps, o.LastUpdate, o.LastLatency)
	}
	if !slices.Equal(c.Engagements, o.Engagements) {
		t.Fatalf("step %d: client engaged %+v, oracle %+v", step, c.Engagements, o.Engagements)
	}
}

// TestClientMatchesOracle runs a seeded stream of updates through the
// client and the oracle: repeated and changed pictures, gaps, duplicates,
// malformed and padded payloads, EngageRange changes and server restarts.
// After every update the two must agree on every field update touches.
func TestClientMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tracks := make([]Track, 48)
	for i := range tracks {
		bearing := rng.Float64() * 2 * math.Pi
		rr := 30_000 + rng.Float64()*170_000
		speed := 100 + rng.Float64()*500
		tracks[i] = Track{ID: uint32(i + 1), X: rr * math.Cos(bearing), Y: rr * math.Sin(bearing)}
		if i%2 == 0 {
			tracks[i].VX, tracks[i].VY = -speed*math.Cos(bearing), -speed*math.Sin(bearing)
		} else {
			tracks[i].VX, tracks[i].VY = speed*math.Sin(bearing), -speed*math.Cos(bearing)
		}
	}
	senders := []netsim.Addr{"s1", "s2", "w-fddi-1"}
	ranges := []float64{40_000, 60_000, 25_000, 0, 100_000}
	p := newClientPair()
	sender := senders[0]
	seq := uint32(0)
	var now time.Duration
	var repeats, changes, malformed, restarts, rangeChanges int
	for step := 0; step < 12_000; step++ {
		now += UpdatePeriod
		if rng.Intn(1000) < 3 {
			sender = senders[rng.Intn(len(senders))]
			seq = 0
			restarts++
		}
		if rng.Intn(1000) < 2 {
			p.setRange(ranges[rng.Intn(len(ranges))])
			rangeChanges++
		}
		switch r := rng.Intn(100); {
		case r < 3:
			seq += uint32(2 + rng.Intn(3)) // lost updates
		case r < 5:
			seq -= uint32(rng.Intn(2)) // a duplicate or a late one
		default:
			seq++
		}
		if rng.Intn(10) < 3 {
			// A radar scan: every track moves, one may be dropped or come back.
			for i := range tracks {
				tracks[i].X += tracks[i].VX * 0.1
				tracks[i].Y += tracks[i].VY * 0.1
			}
			changes++
		} else {
			repeats++
		}
		n := len(tracks)
		if rng.Intn(20) == 0 {
			n = rng.Intn(len(tracks) + 1)
		}
		payload := encodeBatch(nil, seq, tracks[:n], now-time.Duration(rng.Intn(20))*time.Millisecond)
		switch r := rng.Intn(100); {
		case r < 2: // too short for its header or its count
			payload = payload[:rng.Intn(len(payload))]
			malformed++
		case r < 4: // a count past the bytes present
			binary.BigEndian.PutUint32(payload[4:8], uint32(n+1+rng.Intn(1000)))
			malformed++
		case r < 6: // a count below the bytes present
			binary.BigEndian.PutUint32(payload[4:8], uint32(rng.Intn(n+1)))
		case r < 8: // padded to L, as on the wire
			payload = append(payload, make([]byte, UpdateLen-len(payload))...)
		}
		p.update(t, step, now, sender, payload)
	}
	if len(p.o.Engagements) == 0 || p.o.Gaps == 0 || restarts == 0 || rangeChanges == 0 ||
		malformed == 0 || repeats < 5_000 || changes < 2_000 {
		t.Fatalf("stream drifted: %d engagements, %d gaps, %d restarts, %d range changes, %d malformed, %d repeats, %d changes",
			len(p.o.Engagements), p.o.Gaps, restarts, rangeChanges, malformed, repeats, changes)
	}
}

// FuzzClientUpdate holds the client to the oracle on arbitrary update
// streams. The input is a script of steps: an op byte (bits 0-1 pick the
// sender, bit 2 sets EngageRange from bits 3-4, bit 5 resends the previous
// payload), then, unless resending, a length byte and that many payload
// bytes, which need not form a valid update.
func FuzzClientUpdate(f *testing.F) {
	one := encodeBatch(nil, 1, []Track{{ID: 7, X: 30_000, Y: 1, VX: -300}}, 0)
	two := encodeBatch(nil, 2, []Track{{ID: 7, X: 29_000, Y: 1, VX: -300}, {ID: 8, X: -1, Y: 39_000, VY: -200}}, 0)
	step := func(op byte, payload []byte) []byte { return append([]byte{op, byte(len(payload))}, payload...) }
	f.Add([]byte{})
	f.Add(step(0, one))
	f.Add(slices.Concat(step(0, one), []byte{0x20, 0x20}, step(0, two), []byte{0x20}))
	f.Add(slices.Concat(step(0, two), step(0x1c, two), []byte{0x20}, step(0x04, two), step(1, one)))
	f.Add(slices.Concat(step(0, one[:15]), step(0, one[:20]), step(2, one), []byte{0x21, 0x22}))
	ranges := [4]float64{40_000, 0, 100_000, math.NaN()}
	f.Fuzz(func(t *testing.T, script []byte) {
		p := newClientPair()
		senders := [4]netsim.Addr{"s1", "s2", "w-fddi-1", ""}
		var payload []byte
		for i, step := 0, 0; i < len(script); step++ {
			op := script[i]
			i++
			if op&0x04 != 0 {
				p.setRange(ranges[op>>3&3])
			}
			if op&0x20 == 0 {
				if i == len(script) {
					return
				}
				n := min(int(script[i]), len(script)-i-1)
				payload = script[i+1 : i+1+n]
				i += 1 + n
			}
			p.update(t, step, time.Duration(step)*UpdatePeriod, senders[op&3], payload)
		}
	})
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
