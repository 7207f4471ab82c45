package netsim

import (
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// A served socket (UDPSock.Serve) must be indistinguishable from the proc
// that loops on Recv(p, -1), the handler and Free: the same handler trace,
// sock-full drops, no-port drops and event count, and a balanced ledger. The
// oracle plays one arrival schedule into each on twin networks.

// servedWorld is one twin: senders a and b, each joined to r by a link so
// fast that a burst leaves in one instant and arrives in one instant, and
// the endpoint under test on r, bound at port 7. The endpoint echoes every
// third datagram it handles to its sender, whose consumer socket traces it.
type servedWorld struct {
	k       *sim.Kernel
	r       *Node
	senders [2]*UDPSock
	ep      *UDPSock
	drops   uint64 // ep.Drops summed over the ports before the current one
	scratch []byte
	trace   []servedStep
	handled int
}

// servedStep is one datagram a socket handled: the endpoint's, or an echo
// a sender took (port is then the sender's).
type servedStep struct {
	at      time.Duration
	src     Addr
	port    Port
	size    int
	payload string
}

const servedTick = time.Microsecond

func newServedWorld(served bool) *servedWorld {
	w := &servedWorld{k: sim.NewKernel(), scratch: make([]byte, 64)}
	nw := New(w.k, 5)
	w.r = nw.NewHost("r")
	fast := ATMLink()
	fast.RateBps, fast.QueueCap = 1<<60, 1024
	for i, name := range []Addr{"a", "b"} {
		h := nw.NewHost(name)
		nw.NewLink(string(name)+"-r", h, w.r, fast)
		s := h.OpenUDP(0)
		s.Consume(func(pkt *Packet) { w.see(pkt) })
		w.senders[i] = s
	}
	w.ep = w.r.OpenUDP(7)
	handle := func(pkt *Packet) {
		w.see(pkt)
		if w.handled++; w.handled%3 == 0 {
			w.ep.SendCopy(pkt.Src, pkt.SrcPort, pkt.Payload, pkt.Size)
		}
	}
	if served {
		w.ep.Serve(handle)
	} else {
		ep := w.ep
		w.r.Spawn("rx", func(p *sim.Proc) {
			for {
				pkt, _ := ep.Recv(p, -1)
				handle(pkt)
				ep.Free(pkt)
			}
		})
	}
	return w
}

func (w *servedWorld) see(pkt *Packet) {
	w.trace = append(w.trace, servedStep{w.k.Now(), pkt.Src, pkt.DstPort, pkt.Size, string(pkt.Payload)})
}

// burst sends n datagrams from sender i to the endpoint's port, as copies
// of a payload that changes with every datagram or as bare sizes.
func (w *servedWorld) burst(i, n int, copied bool, port Port) {
	s := w.senders[i]
	for j := range n {
		size := 1 + j%16
		if !copied {
			s.SendSize("r", port, size)
			continue
		}
		b := w.scratch[:size]
		for k := range b {
			b[k] = byte(i<<7 | j)
		}
		s.SendCopy("r", port, b, size)
	}
}

// apply schedules one op of a script at virtual time at. The low two bits
// of op are its kind:
//
//	0  a burst of 1 + arg datagrams from sender op>>3&1; with op&4 they
//	   are SendCopy payloads, else bare sizes
//	1  a burst of 1 + arg from each sender at once, copies as in 0
//	2  close the endpoint
//	3  close the endpoint and reopen it on a fresh port; each sender then
//	   sends arg%4 datagrams to the old port
func (w *servedWorld) apply(op, arg byte, at time.Duration) {
	copied := op&4 != 0
	n := 1 + int(arg)
	w.k.At(at, func() {
		switch op & 3 {
		case 0:
			w.burst(int(op>>3&1), n, copied, w.ep.Port())
		case 1:
			w.burst(0, n, copied, w.ep.Port())
			w.burst(1, n, copied, w.ep.Port())
		case 2:
			w.ep.Close()
		case 3:
			old := w.ep.Port()
			w.ep.Close()
			w.drops += w.ep.Drops
			w.ep.Reopen()
			w.burst(0, int(arg%4), copied, old)
			w.burst(1, int(arg%4), copied, old)
		}
	})
}

// servedRun is what one twin did.
type servedRun struct {
	trace         []servedStep
	drops, noPort uint64
	events        int
}

// runServedScript plays a script of 3-byte ops (op, arg, ticks since the
// previous op) on one twin and checks its ledger at the end.
func runServedScript(t *testing.T, script []byte, served bool) servedRun {
	w := newServedWorld(served)
	defer w.k.Close()
	if len(script) > 3*64 {
		script = script[:3*64]
	}
	var at time.Duration
	for i := 0; i+2 < len(script); i += 3 {
		at += time.Duration(script[i+2]%8) * servedTick
		w.apply(script[i], script[i+1], at)
	}
	n := w.k.Run()
	if err := w.r.net.balance(); err != nil {
		t.Fatal(err)
	}
	return servedRun{w.trace, w.drops + w.ep.Drops, w.r.Counters.NoPort, n}
}

func checkServedMatchesProc(t *testing.T, script []byte) servedRun {
	t.Helper()
	want := runServedScript(t, script, false)
	got := runServedScript(t, script, true)
	if got.events != want.events || got.drops != want.drops || got.noPort != want.noPort {
		t.Errorf("served socket: %d events, %d sock-full, %d no-port; the proc loop: %d, %d, %d",
			got.events, got.drops, got.noPort, want.events, want.drops, want.noPort)
	}
	if !slices.Equal(got.trace, want.trace) {
		for i := range min(len(got.trace), len(want.trace)) {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("trace line %d: served %+v, proc loop %+v", i, got.trace[i], want.trace[i])
			}
		}
		t.Fatalf("served trace has %d lines, the proc loop's %d", len(got.trace), len(want.trace))
	}
	return got
}

// servedSeeds are FuzzServedSocket's seed scripts.
var servedSeeds = [][]byte{
	// Two bursts of 200 copies land in one instant: the queue fills and
	// drops as sock-full; then a small burst of sizes.
	{1 | 4, 199, 0, 0, 9, 20},
	// Copies from a, then from b a tick later, interleaving with a's
	// arrivals; the endpoint closes with frames queued and reopens, and
	// datagrams to its old port are dropped as no-port.
	{4, 150, 0, 8 | 4, 150, 1, 2, 0, 5, 3 | 4, 3, 0, 4, 20, 0, 8, 130, 0},
	// Close while the burst is arriving, reopen twice, bursts to each port.
	{4, 40, 0, 2, 0, 5, 0, 10, 1, 3, 2, 2, 1 | 4, 70, 0, 3 | 4, 1, 7, 0, 3, 0},
}

// FuzzServedSocket holds a served socket to the Recv proc loop it replaces,
// on twin networks, over bursts past the queue depth, SendCopy payloads and
// the endpoint closing and reopening mid-stream.
func FuzzServedSocket(f *testing.F) {
	for _, s := range servedSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) { checkServedMatchesProc(t, script) })
}

// TestServedSeedsReachEveryShape: between them, the seed scripts drop as
// sock-full and as no-port, hand the server SendCopy payloads, and reach a
// reopened endpoint's fresh port.
func TestServedSeedsReachEveryShape(t *testing.T) {
	var drops, noPort uint64
	var copies, reopened int
	for _, s := range servedSeeds {
		run := checkServedMatchesProc(t, s)
		drops += run.drops
		noPort += run.noPort
		for _, st := range run.trace {
			if st.src != "r" && st.payload != "" {
				copies++
			}
			if st.src != "r" && st.port != 7 {
				reopened++
			}
		}
	}
	if drops == 0 || noPort == 0 || copies == 0 || reopened == 0 {
		t.Errorf("seeds reach %d sock-full drops, %d no-port drops, %d copies handled, %d at a reopened port; want each > 0",
			drops, noPort, copies, reopened)
	}
}
