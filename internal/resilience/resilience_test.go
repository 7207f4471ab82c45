package resilience

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestBackoffExponentialCapped(t *testing.T) {
	b := NewBackoff(nil, 50*time.Millisecond, 400*time.Millisecond, 0)
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffNilAndZeroAreImmediate(t *testing.T) {
	var b *Backoff
	if b.Delay(3) != 0 {
		t.Fatal("nil backoff must be immediate")
	}
	if (&Backoff{}).Delay(0) != 0 {
		t.Fatal("zero backoff must be immediate")
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	mk := func() *Backoff {
		return NewBackoff(k.Rand(7), 100*time.Millisecond, time.Second, 0.5)
	}
	a, b := mk(), mk()
	for i := 0; i < 8; i++ {
		da, db := a.Delay(i), b.Delay(i)
		if da != db {
			t.Fatalf("jitter nondeterministic at %d: %v vs %v", i, da, db)
		}
		base := NewBackoff(nil, 100*time.Millisecond, time.Second, 0).Delay(i)
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		if da < lo || da > hi {
			t.Fatalf("Delay(%d) = %v outside jitter band [%v, %v]", i, da, lo, hi)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailThreshold: 2, OpenFor: 5 * time.Second})
	now := time.Duration(0)
	if !b.Allow(now) || b.State(now) != Closed {
		t.Fatal("new breaker must be closed")
	}
	// One failure keeps it closed; the second opens it.
	b.Failure(now)
	if b.State(now) != Closed || !b.Allow(now) {
		t.Fatal("opened below threshold")
	}
	b.Failure(now)
	if b.State(now) != Open {
		t.Fatalf("state = %v after threshold failures", b.State(now))
	}
	// Fast-fail while open.
	if b.Allow(now + time.Second) {
		t.Fatal("open breaker allowed a call inside OpenFor")
	}
	if b.Stats.FastFails != 1 || b.Stats.Opens != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
	// After OpenFor a probe is due.
	now += 5 * time.Second
	if b.State(now) != HalfOpen {
		t.Fatal("probe not due after OpenFor")
	}
	if !b.Allow(now) {
		t.Fatal("half-open probe denied")
	}
	// Second caller during the in-flight probe fast-fails.
	if b.Allow(now) {
		t.Fatal("second probe admitted while one is in flight")
	}
	// Failed probe reopens for a fresh window.
	b.Failure(now)
	if b.State(now) != Open || b.Allow(now+time.Second) {
		t.Fatal("failed probe did not reopen")
	}
	// Successful probe after the next window closes it.
	now += 5 * time.Second
	if !b.Allow(now) {
		t.Fatal("second probe denied")
	}
	b.Success(now)
	if b.State(now) != Closed || !b.Allow(now) {
		t.Fatal("successful probe did not close")
	}
	if b.Stats.Closes != 1 || b.Stats.Probes != 2 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestBreakerConsecutiveFailureCounterResets(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailThreshold: 3, OpenFor: time.Second})
	for i := 0; i < 10; i++ {
		b.Failure(0)
		b.Failure(0)
		b.Success(0) // interleaved success: never three in a row
	}
	if b.State(0) != Closed {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

func TestBreakerSetSharedConfigAndAggregation(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{FailThreshold: 1, OpenFor: time.Second})
	if len(s.order) != 0 || s.OpenFraction(0) != 0 {
		t.Fatal("empty set not neutral")
	}
	s.For("a").Failure(0)
	s.For("b")
	s.For("c")
	if len(s.order) != 3 {
		t.Fatalf("%d breakers, want 3", len(s.order))
	}
	if got := s.OpenFraction(0); got < 0.33 || got > 0.34 {
		t.Fatalf("OpenFraction = %v, want 1/3", got)
	}
	if s.For("a") != s.For("a") {
		t.Fatal("For not stable")
	}
	s.For("a").Allow(0) // fast-fail
	if st := s.Stats(); st.Opens != 1 || st.FastFails != 1 {
		t.Fatalf("aggregate stats = %+v", st)
	}
	if order := s.order; len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("creation order = %v", order)
	}
}

// TestTelemetryReadsOwnersFields: the counts a monitor publishes (cots
// registers them, as cots.breaker.* and cots.backoff.*) are the breakers'
// and the backoff's own fields — Stats sums the set in creation order,
// including breakers created after a reader was bound — not a second copy.
func TestTelemetryReadsOwnersFields(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{FailThreshold: 1, OpenFor: time.Second})
	s.For("early").Failure(0)
	read := s.Stats // what a registered reader holds: the method, not a snapshot
	bo := NewBackoff(nil, 50*time.Millisecond, 400*time.Millisecond, 0)

	s.For("early").Allow(0)               // fast-fail
	s.For("early").Allow(2 * time.Second) // probe
	s.For("early").Success(2 * time.Second)
	s.For("late").Failure(3 * time.Second) // created after the reader was bound
	s.For("late").Allow(3 * time.Second)
	for i := 0; i < 4; i++ {
		bo.Delay(i)
	}

	var sum BreakerStats
	for _, target := range s.order {
		b := s.m[target]
		sum.Opens += b.Stats.Opens
		sum.Closes += b.Stats.Closes
		sum.Probes += b.Stats.Probes
		sum.FastFails += b.Stats.FastFails
	}
	if sum != (BreakerStats{Opens: 2, FastFails: 2, Probes: 1, Closes: 1}) {
		t.Fatalf("scenario drifted: summed stats = %+v", sum)
	}
	if got := read(); got != sum {
		t.Errorf("Stats() = %+v, want the per-breaker sum %+v", got, sum)
	}
	if bo.Waits != 4 || bo.Waited != 750*time.Millisecond {
		t.Errorf("backoff handed out %d waits totalling %v, want 4 and 750ms", bo.Waits, bo.Waited)
	}
}
