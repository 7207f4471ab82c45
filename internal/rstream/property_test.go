package rstream

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// streamRun is one transfer of sizes over a lossy LAN.
type streamRun struct {
	dialErr  error // Dial's result
	done     bool  // every Send returned and Flush saw every byte acked
	received int   // bytes the acceptor read
	total    int   // bytes the sender meant to send
	vars     StateVars
}

// runStream dials across a segment that corrupts lossPct%10 percent of
// frames (netsim's RNG seeded with seed), sends the first 20 sizes
// (each folded into 1..4000 bytes) and flushes.
func runStream(seed int64, lossPct uint8, rawSizes []uint16) streamRun {
	if len(rawSizes) > 20 {
		rawSizes = rawSizes[:20]
	}
	var r streamRun
	sizes := make([]int, len(rawSizes))
	for i, s := range rawSizes {
		sizes[i] = int(s)%4000 + 1
		r.total += sizes[i]
	}
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, seed)
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")
	cfg := netsim.Ethernet10()
	cfg.LossProb = float64(lossPct%10) / 100
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(srv)
	seg.Attach(cli)
	l := Listen(srv, 5000)
	srv.Spawn("acceptor", func(p *sim.Proc) {
		c, ok := l.Accept(p, 30*time.Second)
		if !ok {
			return
		}
		for {
			n, ok := c.Recv(p, 60*time.Second)
			if !ok {
				return
			}
			r.received += n
		}
	})
	cli.Spawn("sender", func(p *sim.Proc) {
		c, err := Dial(p, cli, "server", 5000, 10*time.Second)
		if err != nil {
			r.dialErr = err
			return
		}
		for _, sz := range sizes {
			if c.Send(p, sz) != nil {
				return
			}
		}
		if !c.Flush(p, 10*time.Minute) {
			return
		}
		r.vars = c.Vars()
		r.done = true
	})
	k.RunUntil(20 * time.Minute)
	return r
}

// holds states the property for one run. A connection that Dial
// established delivers every byte and ends with SndUna == SndNxt. A Dial
// that used up its three SYN attempts without a SYN|ACK returns the
// connect timeout, and then nothing was received: losing every handshake
// reply is the designed outcome of a bounded Dial, not a stream failure.
func (r streamRun) holds() bool {
	if r.dialErr != nil {
		return strings.HasSuffix(r.dialErr.Error(), ": timeout") && r.received == 0
	}
	return r.done && r.received == r.total && r.vars.SndUna == r.vars.SndNxt
}

func TestPropertyStreamIntegrityUnderLoss(t *testing.T) {
	// Property: whatever mix of send sizes and loss rate, a stream either
	// never connects (Dial's timeout, nothing received) or the receiver
	// observes exactly the bytes sent and SndUna converges to SndNxt.
	cases, established := 0, 0
	f := func(seed int64, lossPct uint8, rawSizes []uint16) bool {
		if len(rawSizes) == 0 {
			return true
		}
		r := runStream(seed, lossPct, rawSizes)
		cases++
		if r.dialErr == nil {
			established++
		}
		if !r.holds() {
			t.Logf("seed %d, loss %d%%: dial err %v, done %v, received %d of %d, SndUna %d SndNxt %d",
				seed, lossPct%10, r.dialErr, r.done, r.received, r.total, r.vars.SndUna, r.vars.SndNxt)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	// Without this the property could pass on Dial timeouts alone.
	if established*10 < cases*9 {
		t.Fatalf("only %d of %d pinned cases established a connection", established, cases)
	}
}

func TestDialTimesOutWhenEverySynAckIsLost(t *testing.T) {
	// At 4 % loss this network seed corrupts all three SYN|ACKs (at
	// 0.16 ms, 3.33 s and 6.67 s), so Dial's 10 s, three-attempt budget
	// runs out with nothing sent. An unpinned quick.Check once drew it and
	// failed the integrity property on the designed outcome.
	r := runStream(-7446207632573521659, 4, []uint16{1000, 2000})
	if r.dialErr == nil {
		t.Fatalf("Dial established; want the connect timeout")
	}
	if !r.holds() {
		t.Fatalf("dial err %v, received %d: want the connect timeout and nothing received", r.dialErr, r.received)
	}
}

func TestPropertySequenceAccounting(t *testing.T) {
	// Property: BytesIn at the receiver equals RcvNxt - IRS - 1 (SYN takes
	// one sequence number) for any transfer size.
	f := func(nChunks uint8) bool {
		n := int(nChunks)%30 + 1
		k := sim.NewKernel()
		defer k.Close()
		nw := netsim.New(k, 5)
		srv := nw.NewHost("server")
		cli := nw.NewHost("client")
		seg := nw.NewSegment("lan", netsim.Ethernet10())
		seg.Attach(srv)
		seg.Attach(cli)
		l := Listen(srv, 5000)
		var serverConn *Conn
		srv.Spawn("acceptor", func(p *sim.Proc) {
			c, ok := l.Accept(p, 10*time.Second)
			if !ok {
				return
			}
			serverConn = c
			for {
				if _, ok := c.Recv(p, 30*time.Second); !ok {
					return
				}
			}
		})
		cli.Spawn("sender", func(p *sim.Proc) {
			c, err := Dial(p, cli, "server", 5000, 5*time.Second)
			if err != nil {
				return
			}
			for i := 0; i < n; i++ {
				c.Send(p, 500)
			}
			c.Flush(p, time.Minute)
		})
		k.RunUntil(5 * time.Minute)
		if serverConn == nil {
			return false
		}
		v := serverConn.Vars()
		return v.BytesIn == uint64(n)*500 && uint64(v.RcvNxt-v.IRS-1) == v.BytesIn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamSurvivesDuplication(t *testing.T) {
	// 20% duplicated frames: the receiver must still see exactly the
	// bytes sent once (go-back-N discards out-of-window repeats).
	k := sim.NewKernel()
	defer k.Close()
	nw := netsim.New(k, 9)
	srv := nw.NewHost("server")
	cli := nw.NewHost("client")
	cfg := netsim.Ethernet10()
	cfg.DupProb = 0.2
	seg := nw.NewSegment("lan", cfg)
	seg.Attach(srv)
	seg.Attach(cli)
	l := Listen(srv, 5000)
	received := 0
	srv.Spawn("acceptor", func(p *sim.Proc) {
		c, ok := l.Accept(p, 10*time.Second)
		if !ok {
			return
		}
		for {
			n, ok := c.Recv(p, 30*time.Second)
			if !ok {
				return
			}
			received += n
		}
	})
	total := 128 << 10
	done := false
	cli.Spawn("sender", func(p *sim.Proc) {
		c, err := Dial(p, cli, "server", 5000, 5*time.Second)
		if err != nil {
			return
		}
		c.Send(p, total)
		done = c.Flush(p, 2*time.Minute)
	})
	k.RunUntil(5 * time.Minute)
	if !done || received != total {
		t.Fatalf("done=%v received=%d want %d", done, received, total)
	}
}
