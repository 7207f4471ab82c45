package vclock

import (
	"encoding/binary"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// NTPPort is the conventional port the simulated sync service listens on.
const NTPPort netsim.Port = 123

// ntpMsgSize mirrors a real NTP packet (48 bytes) so the intrusiveness
// accounting of E4 is realistic.
const ntpMsgSize = 48

// A sync poll is syncBurst request/response samples, each awaited for at
// most syncTimeout.
const (
	syncBurst   = 4
	syncTimeout = 500 * time.Millisecond
)

// encodeTimes packs two local timestamps into an NTP-sized payload.
func encodeTimes(t1, t2 time.Duration) []byte {
	buf := make([]byte, ntpMsgSize)
	binary.BigEndian.PutUint64(buf[0:8], uint64(t1))
	binary.BigEndian.PutUint64(buf[8:16], uint64(t2))
	return buf
}

func decodeTimes(b []byte) (t1, t2 time.Duration) {
	if len(b) < 16 {
		return 0, 0
	}
	return time.Duration(binary.BigEndian.Uint64(b[0:8])),
		time.Duration(binary.BigEndian.Uint64(b[8:16]))
}

// StartSyncServer spawns the time responder on n's NTPPort. It answers with
// n's local clock (set n.LocalClock before starting if the reference should
// itself be imperfect).
func StartSyncServer(n *netsim.Node) {
	sock := n.OpenUDP(NTPPort)
	n.Spawn("ntpd", func(p *sim.Proc) {
		for {
			pkt, ok := sock.Recv(p, -1)
			if !ok {
				return
			}
			t1, _ := decodeTimes(pkt.Payload)
			sock.SendTo(pkt.Src, pkt.SrcPort, encodeTimes(t1, n.LocalTime()))
		}
	})
}

// SyncClient periodically samples the sync server on Server's NTPPort and
// steps the local clock by the best (minimum-RTT) offset estimate of each
// burst.
type SyncClient struct {
	Node   *netsim.Node
	Clock  *Clock
	Server netsim.Addr
	// Poll is the interval between sync bursts.
	Poll time.Duration

	// Traffic accounting for intrusiveness comparisons.
	PacketsSent uint64
	PacketsRecv uint64
	BytesSent   uint64

	// Syncs counts completed adjustments; LastOffset is the most recent
	// estimate applied.
	Syncs      int
	LastOffset time.Duration
}

// Run spawns the client proc; it polls forever (bound the simulation with
// RunUntil).
func (c *SyncClient) Run() {
	sock := c.Node.OpenUDP(0)
	c.Node.Spawn("ntp-client", func(p *sim.Proc) {
		for {
			c.syncOnce(p, sock)
			p.Sleep(c.Poll)
		}
	})
}

func (c *SyncClient) syncOnce(p *sim.Proc, sock *netsim.UDPSock) {
	var samples []Sample
	for i := 0; i < syncBurst; i++ {
		t1 := c.Node.LocalTime()
		sock.SendTo(c.Server, NTPPort, encodeTimes(t1, 0))
		c.PacketsSent++
		c.BytesSent += ntpMsgSize + netsim.HeaderOverhead
		pkt, ok := sock.Recv(p, syncTimeout)
		if !ok {
			continue
		}
		c.PacketsRecv++
		st1, t2 := decodeTimes(pkt.Payload)
		t4 := c.Node.LocalTime()
		samples = append(samples, Sample{
			Offset: EstimateOffset(st1, t2, t4),
			RTT:    t4 - st1,
		})
	}
	if best, ok := BestSample(samples); ok {
		c.Clock.Adjust(best.Offset)
		c.LastOffset = best.Offset
		c.Syncs++
	}
}
