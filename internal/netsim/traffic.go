package netsim

import (
	"math/rand"
	"time"
)

// The traffic endpoints keep no state between datagrams that a stack would
// hold, so none is a proc: a source is one self-rescheduling kernel event
// and a sink a socket consumer called in the delivering event.

// CBRSource sends fixed-size datagrams at a constant rate from src to
// dst:dport — the shape of the RTDS distribution stream and of the NTTCP
// load generator. Bound it with Count; an unbounded source runs for as long
// as the kernel does.
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

	rng  *rand.Rand // nil without jitter
	sock *UDPSock
}

// Run starts the source on the kernel: the first datagram leaves at the
// current virtual time, after the events already scheduled for it.
func (c *CBRSource) Run() {
	if c.Jitter > 0 {
		c.rng = c.Src.net.K.Rand(c.Seed)
	}
	c.sock = c.Src.OpenUDP(0)
	c.Src.net.K.AfterArg(0, cbrTick, c)
}

// cbrTick sends one datagram and re-arms itself one (jittered) interval on.
// The tick after the last datagram finds Count reached and ends the source.
func cbrTick(arg any) {
	c := arg.(*CBRSource)
	if c.Count != 0 && c.Sent >= c.Count {
		return
	}
	c.sock.SendSize(c.Dst, c.DstPort, c.Size)
	c.Sent++
	d := c.Interval
	if c.rng != nil {
		d = time.Duration(float64(d) * (1 - c.Jitter + 2*c.Jitter*c.rng.Float64()))
	}
	c.Src.net.K.AfterArg(d, cbrTick, c)
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

	rng   *rand.Rand
	sock  *UDPSock
	gap   time.Duration // inter-send time at PeakBps
	onEnd time.Duration // when the current on-period ends
}

// Run starts the source on the kernel, with an on-period.
func (o *OnOffSource) Run() {
	o.rng = o.Src.net.K.Rand(o.Seed)
	o.sock = o.Src.OpenUDP(0)
	o.gap = time.Duration(float64(o.Size+HeaderOverhead) * 8 / float64(o.PeakBps) * float64(time.Second))
	o.Src.net.K.AfterArg(0, onOffBegin, o)
}

func (o *OnOffSource) expo(mean time.Duration) time.Duration {
	return time.Duration(o.rng.ExpFloat64() * float64(mean))
}

// onOffBegin fires when an on-period begins: it draws the period's length
// and makes the first send in the same event.
func onOffBegin(arg any) {
	o := arg.(*OnOffSource)
	now := o.Src.net.K.Now()
	if o.Until != 0 && now >= o.Until {
		return
	}
	o.onEnd = now + o.expo(o.MeanOn)
	onOffSend(o)
}

// onOffSend fires after every gap inside an on-period: it sends while the
// period lasts, and draws the off-period's length as it ends.
func onOffSend(arg any) {
	o := arg.(*OnOffSource)
	k := o.Src.net.K
	if k.Now() < o.onEnd {
		o.sock.SendSize(o.Dst, o.DstPort, o.Size)
		o.Sent++
		k.AfterArg(o.gap, onOffSend, o)
		return
	}
	k.AfterArg(o.expo(o.MeanOff), onOffBegin, o)
}

// Sink opens a socket that consumes and counts everything sent to it.
type Sink struct {
	Sock     *UDPSock
	Received int
	Bytes    int64
	LastAt   time.Duration
}

// NewSink binds a sink on the node and port; it counts each datagram as the
// socket takes delivery of it.
func NewSink(n *Node, port Port) *Sink {
	s := &Sink{Sock: n.OpenUDP(port)}
	s.Sock.consume = func(pkt *Packet) {
		s.Received++
		s.Bytes += int64(pkt.Size)
		s.LastAt = n.net.K.Now()
	}
	return s
}
