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

// Backoff computes retransmission delays: attempt n waits Base·2ⁿ, capped
// at Max, with an optional deterministic jitter drawn from rng. The zero
// value (or a nil pointer) yields zero delays, i.e. the legacy immediate
// retransmit.
type Backoff struct {
	// Base is the delay before the first retransmission.
	Base time.Duration
	// Max caps the exponential growth; zero means uncapped.
	Max time.Duration
	// JitterFrac spreads each delay by ±JitterFrac/2 of its value
	// (0 disables jitter). Requires a non-nil rng.
	JitterFrac float64

	// Waits counts the non-zero delays Delay has handed out; Waited is the
	// virtual time they add up to.
	Waits  uint64
	Waited time.Duration

	rng *rand.Rand
}

// NewBackoff builds a backoff schedule. rng supplies the jitter stream;
// pass one derived from sim.Kernel.Rand so the schedule is deterministic.
func NewBackoff(rng *rand.Rand, base, max time.Duration, jitterFrac float64) *Backoff {
	return &Backoff{Base: base, Max: max, JitterFrac: jitterFrac, rng: rng}
}

// Delay returns the wait before retransmission number attempt (0-based).
// A nil Backoff returns 0 for every attempt.
func (b *Backoff) Delay(attempt int) time.Duration {
	if b == nil || b.Base <= 0 {
		return 0
	}
	d := b.Base
	for i := 0; i < attempt; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.JitterFrac > 0 && b.rng != nil {
		j := (b.rng.Float64() - 0.5) * b.JitterFrac
		d = time.Duration(float64(d) * (1 + j))
		if d < 0 {
			d = 0
		}
	}
	if d > 0 {
		b.Waits++
		b.Waited += d
	}
	return d
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

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// FailThreshold is how many consecutive failures open the breaker.
	FailThreshold int
	// OpenFor is how long an open breaker fast-fails before admitting a
	// half-open probe — the "reduced rate" at which a dead target is
	// re-checked.
	OpenFor time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	return c
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

// Breaker is a per-target circuit breaker on the virtual clock. It is not
// safe for concurrent use from multiple OS threads; under the simulation
// kernel all calls are serialized anyway.
type Breaker struct {
	Stats BreakerStats

	cfg      BreakerConfig
	state    BreakerState
	fails    int
	openedAt time.Duration
	probing  bool
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// State reports the effective state at virtual time now: an open breaker
// whose OpenFor window has elapsed reads as half-open (a probe is due).
func (b *Breaker) State(now time.Duration) BreakerState {
	if b.state == Open && now-b.openedAt >= b.cfg.OpenFor {
		return HalfOpen
	}
	return b.state
}

// Allow reports whether a call to the target may proceed at virtual time
// now. While open it fast-fails until OpenFor has elapsed, then admits one
// half-open probe; the probe's Success or Failure decides what follows.
func (b *Breaker) Allow(now time.Duration) bool {
	switch b.state {
	case Closed:
		return true
	case Open:
		if now-b.openedAt >= b.cfg.OpenFor {
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

// Success records a successful call finishing at virtual time now. A
// half-open probe's success closes the breaker, and so does evidence of
// life from outside the probe path while it is open (e.g. a trap arrived).
func (b *Breaker) Success(now time.Duration) {
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
		// The probe failed: reopen for another OpenFor window.
		b.state = Open
		b.openedAt = now
		b.Stats.Opens++
	case Closed:
		if b.fails >= b.cfg.FailThreshold {
			b.state = Open
			b.openedAt = now
			b.Stats.Opens++
		}
	}
}

// BreakerSet keys breakers by target name, creating them on demand with a
// shared config. Iteration order is creation order, for determinism.
type BreakerSet struct {
	Cfg BreakerConfig

	m     map[string]*Breaker
	order []string
}

// NewBreakerSet returns an empty set with the given shared config.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{Cfg: cfg.withDefaults(), m: make(map[string]*Breaker)}
}

// For returns the breaker for target, creating a closed one on first use.
func (s *BreakerSet) For(target string) *Breaker {
	if b, ok := s.m[target]; ok {
		return b
	}
	b := NewBreaker(s.Cfg)
	s.m[target] = b
	s.order = append(s.order, target)
	return b
}

// OpenFraction reports the fraction of targets whose breaker is open or
// half-open at virtual time now — the fleet-wide failure signal a director
// uses to shed poll load.
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
