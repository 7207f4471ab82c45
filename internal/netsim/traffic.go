package netsim

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// CBRSource sends fixed-size datagrams at a constant rate from src to
// dst:dport — the shape of the RTDS distribution stream and of the NTTCP
// load generator. It returns the spawned proc; stop it by closing over a
// flag or bounding Count.
type CBRSource struct {
	Src      *Node
	Dst      Addr
	DstPort  Port
	Size     int           // payload bytes per message
	Interval time.Duration // inter-send time P
	Count    int           // number of messages; 0 means unbounded
	Jitter   float64       // fraction of Interval randomized (0..1)
	Seed     int64

	Sent int
}

// Run starts the source on the kernel.
func (c *CBRSource) Run() *sim.Proc {
	var rng *rand.Rand
	if c.Jitter > 0 {
		rng = c.Src.net.K.Rand(c.Seed)
	}
	sock := c.Src.OpenUDP(0)
	return c.Src.Spawn("cbr", func(p *sim.Proc) {
		for c.Count == 0 || c.Sent < c.Count {
			sock.SendSize(c.Dst, c.DstPort, c.Size)
			c.Sent++
			d := c.Interval
			if rng != nil {
				d = time.Duration(float64(d) * (1 - c.Jitter + 2*c.Jitter*rng.Float64()))
			}
			p.Sleep(d)
		}
	})
}

// OnOffSource alternates exponential on/off periods; during on-periods it
// sends at the given rate. It produces the bursty transient cross-traffic
// that makes short NTTCP bursts unreliable (§5.1.2).
type OnOffSource struct {
	Src     *Node
	Dst     Addr
	DstPort Port
	Size    int           // payload bytes per message
	PeakBps int64         // sending rate during on-periods
	MeanOn  time.Duration // mean on-period
	MeanOff time.Duration // mean off-period
	Seed    int64
	Until   time.Duration // stop after this virtual time; 0 means never

	Sent int
}

// Run starts the source on the kernel.
func (o *OnOffSource) Run() *sim.Proc {
	rng := o.Src.net.K.Rand(o.Seed)
	sock := o.Src.OpenUDP(0)
	gap := time.Duration(float64(o.Size+HeaderOverhead) * 8 / float64(o.PeakBps) * float64(time.Second))
	expo := func(mean time.Duration) time.Duration {
		return time.Duration(rng.ExpFloat64() * float64(mean))
	}
	return o.Src.Spawn("onoff", func(p *sim.Proc) {
		for o.Until == 0 || p.Now() < o.Until {
			end := p.Now() + expo(o.MeanOn)
			for p.Now() < end {
				sock.SendSize(o.Dst, o.DstPort, o.Size)
				o.Sent++
				p.Sleep(gap)
			}
			p.Sleep(expo(o.MeanOff))
		}
	})
}

// Sink opens a socket that consumes and counts everything sent to it.
type Sink struct {
	Sock     *UDPSock
	Received int
	Bytes    int64
	LastAt   time.Duration
}

// NewSink binds a sink on the node and port and starts its consumer proc.
func NewSink(n *Node, port Port) *Sink {
	s := &Sink{Sock: n.OpenUDP(port)}
	n.Spawn("sink", func(p *sim.Proc) {
		for {
			pkt, ok := s.Sock.Recv(p, -1)
			if !ok {
				return
			}
			s.Received++
			s.Bytes += int64(pkt.Size)
			s.LastAt = p.Now()
		}
	})
	return s
}
