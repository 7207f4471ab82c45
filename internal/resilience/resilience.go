// Package resilience supplies the fault-tolerance primitives the monitor
// stack threads through its sensor directors: per-target circuit breakers
// and exponential backoff with deterministic jitter.
//
// The paper's operational finding (§5.2.4) is that SNMP-over-UDP silently
// loses requests and traps under load. A monitor that reacts to that with a
// fixed retry and full-rate polling of dead agents both wastes the network
// (intrusiveness) and serves stale data (fidelity). The breaker converts
// repeated timeouts into an immediate "unreachable" verdict and sheds the
// poll traffic; the backoff spreads retransmissions so a congested segment
// is not hammered at a fixed cadence.
//
// Everything here is driven by the simulation's virtual clock — callers
// pass the current virtual time explicitly — and jitter comes from a
// caller-provided *rand.Rand (seed it from sim.Kernel.Rand), so runs stay
// bit-for-bit reproducible and the simdeterminism analyzer stays clean.
package resilience

import (
	"math/rand"
	"time"
)

// The one configuration every resilient run uses (DESIGN §9): a breaker
// opens on the failThreshold-th consecutive failure and admits a half-open
// probe openFor later — the "reduced rate" at which a dead target is
// re-checked; retry n waits backoffBase·2ⁿ, capped at backoffMax, spread by
// ±jitterFrac/2 of its value.
const (
	failThreshold = 2
	openFor       = 6 * time.Second
	backoffBase   = 50 * time.Millisecond
	backoffMax    = 400 * time.Millisecond
	jitterFrac    = 0.2
)

// Backoff computes retransmission delays: attempt n waits backoffBase·2ⁿ,
// capped at backoffMax, jittered from rng. A nil Backoff yields zero
// delays, i.e. the immediate retransmit.
type Backoff struct {
	// Waits counts the delays Delay has handed out to be slept; Waited is
	// the virtual time they add up to.
	Waits  uint64
	Waited time.Duration

	rng *rand.Rand
}

// NewBackoff builds the backoff schedule. rng supplies the jitter stream;
// pass one derived from sim.Kernel.Rand so the schedule is deterministic
// (nil leaves the schedule unjittered).
func NewBackoff(rng *rand.Rand) *Backoff {
	return &Backoff{rng: rng}
}

// Delay returns the wait before retransmission number attempt (0-based)
// and whether it ends within room (a negative room is no limit). Only a
// wait that fits is counted: the caller sleeps it, and gives up where one
// does not fit, though its jitter is drawn all the same. A nil Backoff
// returns 0 for every attempt.
func (b *Backoff) Delay(attempt int, room time.Duration) (time.Duration, bool) {
	if b == nil {
		return 0, true
	}
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	if b.rng != nil {
		j := (b.rng.Float64() - 0.5) * jitterFrac
		d = time.Duration(float64(d) * (1 + j))
	}
	if room >= 0 && d >= room {
		return d, false
	}
	b.Waits++
	b.Waited += d
	return d, true
}

// BreakerState is the circuit breaker state.
type BreakerState int

// Breaker states: Closed passes traffic, Open fast-fails it, HalfOpen
// admits a single probe to test recovery.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerStats counts breaker activity.
type BreakerStats struct {
	// Opens counts closed→open and half-open→open transitions.
	Opens uint64
	// FastFails counts calls denied while open.
	FastFails uint64
	// Probes counts half-open probes admitted.
	Probes uint64
	// Closes counts recoveries back to closed.
	Closes uint64
}

// Breaker is a per-target circuit breaker on the virtual clock; the zero
// Breaker is closed. It is not safe for concurrent use from multiple OS
// threads; under the simulation kernel all calls are serialized anyway.
type Breaker struct {
	Stats BreakerStats

	state    BreakerState
	fails    int
	openedAt time.Duration
	probing  bool
}

// State reports the effective state at virtual time now: an open breaker
// whose openFor window has elapsed reads as half-open (a probe is due).
func (b *Breaker) State(now time.Duration) BreakerState {
	if b.state == Open && now-b.openedAt >= openFor {
		return HalfOpen
	}
	return b.state
}

// Allow reports whether a call to the target may proceed at virtual time
// now. While open it fast-fails until openFor has elapsed, then admits one
// half-open probe; the probe's Success or Failure decides what follows.
func (b *Breaker) Allow(now time.Duration) bool {
	switch b.state {
	case Closed:
		return true
	case Open:
		if now-b.openedAt >= openFor {
			b.state = HalfOpen
			b.probing = true
			b.Stats.Probes++
			return true
		}
		b.Stats.FastFails++
		return false
	default: // HalfOpen
		if b.probing {
			// A probe is already in flight; everyone else fast-fails.
			b.Stats.FastFails++
			return false
		}
		b.probing = true
		b.Stats.Probes++
		return true
	}
}

// Success records a successful call. A half-open probe's success closes the
// breaker, and so does evidence of life from outside the probe path while
// it is open (e.g. a trap arrived).
func (b *Breaker) Success() {
	b.probing = false
	b.fails = 0
	if b.state != Closed {
		b.state = Closed
		b.Stats.Closes++
	}
}

// Failure records a failed (timed-out) call finishing at virtual time now.
func (b *Breaker) Failure(now time.Duration) {
	b.probing = false
	b.fails++
	switch b.state {
	case HalfOpen:
		// The probe failed: reopen for another openFor window.
		b.state = Open
		b.openedAt = now
		b.Stats.Opens++
	case Closed:
		if b.fails >= failThreshold {
			b.state = Open
			b.openedAt = now
			b.Stats.Opens++
		}
	}
}

// BreakerSet keys breakers by target name, creating them on demand.
// Iteration order is creation order, for determinism.
type BreakerSet struct {
	m     map[string]*Breaker
	order []string
}

// NewBreakerSet returns an empty set.
func NewBreakerSet() *BreakerSet {
	return &BreakerSet{m: make(map[string]*Breaker)}
}

// For returns the breaker for target, creating a closed one on first use.
func (s *BreakerSet) For(target string) *Breaker {
	if b, ok := s.m[target]; ok {
		return b
	}
	b := &Breaker{}
	s.m[target] = b
	s.order = append(s.order, target)
	return b
}

// OpenFraction reports the fraction of targets whose breaker is open or
// half-open at virtual time now — the fleet-wide failure signal the COTS
// director publishes as its cots.breaker_open_fraction gauge.
func (s *BreakerSet) OpenFraction(now time.Duration) float64 {
	if len(s.order) == 0 {
		return 0
	}
	open := 0
	for _, t := range s.order {
		if s.m[t].State(now) != Closed {
			open++
		}
	}
	return float64(open) / float64(len(s.order))
}

// Stats aggregates the stats of every breaker in the set.
func (s *BreakerSet) Stats() BreakerStats {
	var out BreakerStats
	for _, t := range s.order {
		st := s.m[t].Stats
		out.Opens += st.Opens
		out.FastFails += st.FastFails
		out.Probes += st.Probes
		out.Closes += st.Closes
	}
	return out
}
