// Package rtds implements the Radar Track Data Server application of §5.1:
// the client/server combat-system component whose monitoring needs drove
// the high-fidelity monitor. A radar feeds a track database; the server
// distributes track updates to its clients every P = 30 ms in L = 8192 B
// messages; clients classify tracks and decide engagements. Server and
// client processes are restartable so the resource manager can move them
// between pool hosts.
package rtds

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Application traffic shape (§5.1.2.1): 8192-byte messages every 30 ms.
const (
	// UpdateLen is L, the track update message length.
	UpdateLen = 8192
	// UpdatePeriod is P, the inter-send time.
	UpdatePeriod = 30 * time.Millisecond
	// ServerPort is the well-known subscription/data port.
	ServerPort netsim.Port = 6000
	// ClientPort is where clients receive updates.
	ClientPort netsim.Port = 6001
)

// Track is one radar track: position and velocity in a flat 2-D ocean
// sector, in meters and meters/second.
type Track struct {
	ID     uint32
	X, Y   float64
	VX, VY float64
	// UpdatedAt is the radar time of the last plot.
	UpdatedAt time.Duration
}

// Range returns the distance from own ship at the origin.
func (t Track) Range() float64 { return math.Hypot(t.X, t.Y) }

// ClosingSpeed is the speed toward own ship (positive = inbound).
func (t Track) ClosingSpeed() float64 {
	r := t.Range()
	if r == 0 {
		return 0
	}
	return -(t.X*t.VX + t.Y*t.VY) / r
}

// Radar simulates the sensor: a set of targets with kinematics, re-plotted
// every scan. It is the ground truth the servers distribute.
type Radar struct {
	Tracks []Track
	Scan   time.Duration

	rng *rand.Rand
}

// NewRadar creates targets around own ship: a mix of inbound hostiles and
// crossing neutrals, deterministic under seed.
func NewRadar(k *sim.Kernel, seed int64, targets int, scan time.Duration) *Radar {
	r := &Radar{Scan: scan, rng: k.Rand(seed)}
	for i := 0; i < targets; i++ {
		bearing := r.rng.Float64() * 2 * math.Pi
		rng := 50_000 + r.rng.Float64()*150_000 // 50-200 km
		speed := 100 + r.rng.Float64()*500      // 100-600 m/s
		tr := Track{
			ID: uint32(i + 1),
			X:  rng * math.Cos(bearing),
			Y:  rng * math.Sin(bearing),
		}
		if i%3 == 0 {
			// Inbound: velocity toward the origin.
			tr.VX, tr.VY = -speed*math.Cos(bearing), -speed*math.Sin(bearing)
		} else {
			cross := bearing + math.Pi/2
			tr.VX, tr.VY = speed*math.Cos(cross), speed*math.Sin(cross)
		}
		r.Tracks = append(r.Tracks, tr)
	}
	k.Spawn("radar", func(p *sim.Proc) {
		for {
			p.Sleep(r.Scan)
			r.step(p.Now())
		}
	})
	return r
}

func (r *Radar) step(now time.Duration) {
	dt := r.Scan.Seconds()
	for i := range r.Tracks {
		t := &r.Tracks[i]
		t.X += t.VX * dt
		t.Y += t.VY * dt
		t.UpdatedAt = now
	}
}

// update wire format: seq(4) count(4) then per track id(4) x,y,vx,vy(8 each)
// = 36 B/track; an 8192 B message carries the batch header + padding to L.
const trackWire = 36

// encodeBatch packs as many tracks as fit into an UpdateLen message.
func encodeBatch(seq uint32, tracks []Track, sentAt time.Duration) []byte {
	max := (UpdateLen - 16) / trackWire
	if len(tracks) > max {
		tracks = tracks[:max]
	}
	buf := make([]byte, 16+len(tracks)*trackWire)
	binary.BigEndian.PutUint32(buf[0:4], seq)
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(tracks)))
	binary.BigEndian.PutUint64(buf[8:16], uint64(sentAt))
	off := 16
	for _, t := range tracks {
		binary.BigEndian.PutUint32(buf[off:], t.ID)
		binary.BigEndian.PutUint64(buf[off+4:], math.Float64bits(t.X))
		binary.BigEndian.PutUint64(buf[off+12:], math.Float64bits(t.Y))
		binary.BigEndian.PutUint64(buf[off+20:], math.Float64bits(t.VX))
		binary.BigEndian.PutUint64(buf[off+28:], math.Float64bits(t.VY))
		off += trackWire
	}
	return buf
}

// decodeBatch unpacks an update into scratch, growing it only when the batch
// is larger than any before, and returns the decoded tracks as a slice of
// it: a client that hands the same scratch back every update decodes without
// allocating. Every field of every returned track is overwritten, so nothing
// of an earlier batch shows through. The wire count is checked against the
// bytes that are actually there before anything is sized by it; on failure
// tracks is nil and the caller keeps its scratch.
func decodeBatch(b []byte, scratch []Track) (seq uint32, sentAt time.Duration, tracks []Track, ok bool) {
	if len(b) < 16 {
		return 0, 0, nil, false
	}
	seq = binary.BigEndian.Uint32(b[0:4])
	count := binary.BigEndian.Uint32(b[4:8])
	sentAt = time.Duration(binary.BigEndian.Uint64(b[8:16]))
	if uint64(count) > uint64((len(b)-16)/trackWire) {
		return 0, 0, nil, false
	}
	n := int(count)
	if cap(scratch) < n {
		scratch = make([]Track, n)
	}
	tracks = scratch[:n]
	off := 16
	for i := range tracks {
		tracks[i] = Track{
			ID: binary.BigEndian.Uint32(b[off:]),
			X:  math.Float64frombits(binary.BigEndian.Uint64(b[off+4:])),
			Y:  math.Float64frombits(binary.BigEndian.Uint64(b[off+12:])),
			VX: math.Float64frombits(binary.BigEndian.Uint64(b[off+20:])),
			VY: math.Float64frombits(binary.BigEndian.Uint64(b[off+28:])),
		}
		off += trackWire
	}
	return seq, sentAt, tracks, true
}

// Server is one RTDS server process instance on a host.
type Server struct {
	Host  *netsim.Node
	Radar *Radar
	// Clients are the destinations served by this instance.
	Clients []netsim.Addr

	// UpdatesSent counts distribution messages.
	UpdatesSent int
	stopped     bool
	seq         uint32
}

// StartServer runs an RTDS server instance distributing to clients.
func StartServer(host *netsim.Node, radar *Radar, clients []netsim.Addr) *Server {
	s := &Server{Host: host, Radar: radar, Clients: append([]netsim.Addr(nil), clients...)}
	sock := host.OpenUDP(ServerPort)
	host.Spawn("rtds-server", func(p *sim.Proc) {
		defer sock.Close()
		for !s.stopped {
			s.seq++
			payload := encodeBatch(s.seq, radar.Tracks, p.Now())
			for _, c := range s.Clients {
				sock.SendProto(c, ClientPort, payload, UpdateLen, netsim.UDP)
				s.UpdatesSent++
			}
			p.Sleep(UpdatePeriod)
		}
	})
	return s
}

// Stop ends this instance (used on failover; a dead host's instance just
// stops producing anyway).
func (s *Server) Stop() { s.stopped = true }

// Engagement records a client's decision to engage a hostile track.
type Engagement struct {
	At      time.Duration
	TrackID uint32
	Range   float64
}

// Client is one RTDS client process instance on a host.
type Client struct {
	Host *netsim.Node

	// UpdatesReceived counts update messages consumed.
	UpdatesReceived int
	// LastSeq and LastUpdate describe data freshness.
	LastSeq    uint32
	LastUpdate time.Duration
	// LastLatency is the most recent update's end-to-end delay.
	LastLatency time.Duration
	// Gaps counts sequence discontinuities (lost updates).
	Gaps int
	// Engagements is the engagement log.
	Engagements []Engagement
	// EngageRange is the engagement decision radius in meters.
	EngageRange float64

	engaged map[uint32]bool
	tracks  []Track // decode scratch, reused across updates
}

// StartClient runs an RTDS client instance.
func StartClient(host *netsim.Node) *Client {
	c := &Client{Host: host, EngageRange: 40_000, engaged: make(map[uint32]bool)}
	sock := host.OpenUDP(ClientPort)
	host.Spawn("rtds-client", func(p *sim.Proc) {
		defer sock.Close()
		for {
			pkt, ok := sock.Recv(p, time.Second)
			if !ok {
				continue
			}
			c.update(p.Now(), pkt.Payload)
		}
	})
	return c
}

// update consumes one update message. Malformed messages are ignored.
func (c *Client) update(now time.Duration, payload []byte) {
	seq, sentAt, tracks, ok := decodeBatch(payload, c.tracks)
	if !ok {
		return
	}
	c.tracks = tracks
	if c.LastSeq != 0 && seq > c.LastSeq+1 {
		c.Gaps += int(seq - c.LastSeq - 1)
	}
	if seq > c.LastSeq {
		c.LastSeq = seq
	}
	c.UpdatesReceived++
	c.LastUpdate = now
	c.LastLatency = now - sentAt
	c.process(now, tracks)
}

// process classifies tracks and makes engagement decisions: an inbound
// track closing fast inside EngageRange is hostile and engaged once.
func (c *Client) process(now time.Duration, tracks []Track) {
	for _, t := range tracks {
		r := t.Range()
		hostile := t.ClosingSpeed() > 50 && r < 150_000
		if hostile && r < c.EngageRange && !c.engaged[t.ID] {
			c.engaged[t.ID] = true
			c.Engagements = append(c.Engagements, Engagement{At: now, TrackID: t.ID, Range: r})
		}
	}
}

// Staleness reports the age of the client's track picture.
func (c *Client) Staleness(now time.Duration) time.Duration {
	return now - c.LastUpdate
}
