// Package chaos provides fault-injection schedules for the simulated
// testbed: host crashes and restarts, interface flaps, and partition of a
// shared segment — the failure vocabulary a survivability experiment needs
// (the paper's whole premise is reconfiguring around exactly these events).
//
// All injections are scheduled on the virtual clock, so chaos runs are as
// deterministic as everything else in the simulator.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Event records one executed injection.
type Event struct {
	At     time.Duration
	Kind   string
	Target string
}

func (e Event) String() string {
	return fmt.Sprintf("[%v] %s %s", e.At, e.Kind, e.Target)
}

// Schedule accumulates injections against one network. Build it before the
// kernel runs (or from a proc); read Log afterwards.
type Schedule struct {
	// Log lists executed injections in time order.
	Log []Event

	k  *sim.Kernel
	nw *netsim.Network
}

// NewSchedule creates an empty schedule for nw.
func NewSchedule(nw *netsim.Network) *Schedule {
	return &Schedule{k: nw.K, nw: nw}
}

func (s *Schedule) record(kind string, target netsim.Addr) {
	s.Log = append(s.Log, Event{At: s.k.Now(), Kind: kind, Target: string(target)})
}

// Kill takes a host down at the given time.
func (s *Schedule) Kill(host netsim.Addr, at time.Duration) *Schedule {
	s.k.At(at, func() {
		if n := s.nw.Node(host); n != nil {
			n.SetUp(false)
			s.record("kill", host)
		}
	})
	return s
}

// Restore brings a host back up at the given time.
func (s *Schedule) Restore(host netsim.Addr, at time.Duration) *Schedule {
	s.k.At(at, func() {
		if n := s.nw.Node(host); n != nil {
			n.SetUp(true)
			s.record("restore", host)
		}
	})
	return s
}

// Flap takes a host down and up repeatedly: count down/up cycles starting
// at the given time, with the host spending downFor of every period down.
// count and the two durations must be positive (a zero-cycle or
// zero-length flap is always a caller bug, and used to silently schedule
// nothing); downFor is clamped to period so consecutive cycles cannot
// overlap into an out-of-order kill/restore interleaving.
func (s *Schedule) Flap(host netsim.Addr, start time.Duration, period, downFor time.Duration, count int) *Schedule {
	if count <= 0 {
		panic(fmt.Sprintf("chaos: Flap(%s): count %d, want > 0", host, count))
	}
	if period <= 0 || downFor <= 0 {
		panic(fmt.Sprintf("chaos: Flap(%s): period %v / downFor %v, want > 0", host, period, downFor))
	}
	if downFor > period {
		downFor = period
	}
	for i := 0; i < count; i++ {
		base := start + time.Duration(i)*period
		s.Kill(host, base)
		s.Restore(host, base+downFor)
	}
	return s
}

// CutIface takes one interface down (a cable pull) at the given time; the
// host stays up and its other interfaces keep working.
//
//lint:allow unusedexport test-pinned by TestCutIfaceIsolatesButHostLives and TestRestoreIface; retire together
func (s *Schedule) CutIface(host netsim.Addr, ifaceIndex int, at time.Duration) *Schedule {
	s.k.At(at, func() {
		n := s.nw.Node(host)
		if n == nil {
			return
		}
		for _, ifc := range n.Ifaces() {
			if ifc.Index == ifaceIndex {
				ifc.SetUp(false)
				s.record("cut-iface", netsim.Addr(fmt.Sprintf("%s#%d", host, ifaceIndex)))
			}
		}
	})
	return s
}

// RestoreIface brings an interface back at the given time.
//
//lint:allow unusedexport test-pinned by TestRestoreIface; retire together with CutIface
func (s *Schedule) RestoreIface(host netsim.Addr, ifaceIndex int, at time.Duration) *Schedule {
	s.k.At(at, func() {
		n := s.nw.Node(host)
		if n == nil {
			return
		}
		for _, ifc := range n.Ifaces() {
			if ifc.Index == ifaceIndex {
				ifc.SetUp(true)
				s.record("restore-iface", netsim.Addr(fmt.Sprintf("%s#%d", host, ifaceIndex)))
			}
		}
	})
	return s
}

// Partition isolates a set of hosts from everything else between from and
// to, by cutting every interface of each host — a clean network partition
// for split-brain experiments.
func (s *Schedule) Partition(hosts []netsim.Addr, from, to time.Duration) *Schedule {
	for _, h := range hosts {
		h := h
		s.k.At(from, func() {
			n := s.nw.Node(h)
			if n == nil {
				return
			}
			for _, ifc := range n.Ifaces() {
				ifc.SetUp(false)
			}
			s.record("partition", h)
		})
		s.k.At(to, func() {
			n := s.nw.Node(h)
			if n == nil {
				return
			}
			for _, ifc := range n.Ifaces() {
				ifc.SetUp(true)
			}
			s.record("heal", h)
		})
	}
	return s
}

// Degrade raises the loss probability of a segment between from and to —
// a flaky cable rather than a dead one. It works by swapping the config's
// loss probability in place; healing restores the value the segment had
// at injection time, so a segment with baseline loss does not come back
// magically perfect.
func (s *Schedule) Degrade(seg *netsim.SharedSegment, lossProb float64, from, to time.Duration) *Schedule {
	var prev float64
	injected := false
	s.k.At(from, func() {
		prev = seg.Config().LossProb
		injected = true
		seg.SetLossProb(lossProb)
		s.record("degrade", netsim.Addr(seg.Name()))
	})
	s.k.At(to, func() {
		if !injected {
			return
		}
		seg.SetLossProb(prev)
		s.record("heal-degrade", netsim.Addr(seg.Name()))
	})
	return s
}
