package nttcp

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/rstream"
	"repro/internal/sim"
)

// Stream mode: the original ttcp/NTTCP measured TCP as well as UDP. Here
// the burst rides the reliable stream transport (package rstream), so the
// result reflects what a connection-oriented application would see —
// retransmission and flow control included.

// StreamPortOffset is added to the server's datagram port for the stream
// listener.
const StreamPortOffset = 1

// streamServer accepts stream connections and consumes them; throughput is
// measured at the sender (all bytes are acknowledged end-to-end, so the
// sender-side figure is receiver-confirmed).
type streamServer struct {
	listener *rstream.Listener
}

func startStreamServer(node *netsim.Node, port netsim.Port) *streamServer {
	s := &streamServer{listener: rstream.Listen(node, port)}
	node.Spawn("nttcp-stream-server", func(p *sim.Proc) {
		for {
			conn, ok := s.listener.Accept(p, -1)
			if !ok {
				return
			}
			c := conn
			node.Spawn("nttcp-stream-sink", func(cp *sim.Proc) {
				for {
					if _, ok := c.Recv(cp, time.Minute); !ok {
						return
					}
				}
			})
		}
	})
	return s
}

// MeasureStream runs a stream-mode measurement: connect, push
// Count × MsgLen bytes through the reliable transport, and wait for the
// last acknowledgement. Reached reflects connection establishment;
// OneWayLatency is estimated as SRTT/2 (transport-level, marked by the
// caller as approximate when it matters).
//
//lint:allow unusedexport test-pinned by the four TestStreamMeasure* tests; retire together with the stream server
func (c *Client) MeasureStream(p *sim.Proc, target netsim.Addr, port netsim.Port) (res Result, err error) {
	if port == 0 {
		port = Port + StreamPortOffset
	}
	cfg := c.Config
	start := p.Now()
	defer func() { res.Elapsed = p.Now() - start }()

	conn, derr := rstream.Dial(p, c.Node, target, port, cfg.Timeout)
	if derr != nil {
		return res, fmt.Errorf("nttcp: stream: %w", derr)
	}
	defer conn.Close()
	res.Reached = true

	total := cfg.Count * cfg.MsgLen
	xferStart := p.Now()
	for i := 0; i < cfg.Count; i++ {
		if err := conn.Send(p, cfg.MsgLen); err != nil {
			return res, fmt.Errorf("nttcp: stream: %w", err)
		}
		res.Sent++
		if cfg.InterSend > 0 {
			p.Sleep(cfg.InterSend)
		}
	}
	if !conn.Flush(p, 10*cfg.Timeout) {
		return res, fmt.Errorf("nttcp: stream: flush timed out")
	}
	elapsed := p.Now() - xferStart
	vars := conn.Vars()
	res.Received = res.Sent // acknowledged end-to-end
	if elapsed > 0 {
		res.ThroughputBps = float64(total) * 8 / elapsed.Seconds()
	}
	res.OneWayLatency = vars.SRTT / 2
	res.OverheadBytes = int64(vars.BytesOut) + int64(vars.SegsOut)*16 + int64(vars.SegsIn)*16
	res.OverheadPackets = int(vars.SegsOut + vars.SegsIn)
	res.Retransmissions = int(vars.RetransSegs)
	return res, nil
}
