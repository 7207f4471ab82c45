package resilience

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// schedule is the backoff's unjittered schedule: 50 ms doubling to a
// 400 ms cap.
var schedule = []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
	200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond}

func TestBackoffExponentialCapped(t *testing.T) {
	b := NewBackoff(nil)
	for i, w := range schedule {
		if got := b.Delay(i); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	if got := b.Delay(30); got != schedule[len(schedule)-1] {
		t.Fatalf("Delay(30) = %v, want the cap", got)
	}
}

func TestBackoffNilIsImmediate(t *testing.T) {
	var b *Backoff
	if b.Delay(0) != 0 || b.Delay(3) != 0 {
		t.Fatal("nil backoff must be immediate")
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a, b := NewBackoff(k.Rand(7)), NewBackoff(k.Rand(7))
	jittered := false
	for i, base := range schedule {
		da, db := a.Delay(i), b.Delay(i)
		if da != db {
			t.Fatalf("jitter nondeterministic at %d: %v vs %v", i, da, db)
		}
		lo := time.Duration(float64(base) * 0.9)
		hi := time.Duration(float64(base) * 1.1)
		if da < lo || da > hi {
			t.Fatalf("Delay(%d) = %v outside the ±10%% band [%v, %v]", i, da, lo, hi)
		}
		jittered = jittered || da != base
	}
	if !jittered {
		t.Fatal("a seeded backoff handed out the unjittered schedule")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := &Breaker{}
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
		t.Fatal("open breaker allowed a call inside openFor")
	}
	if b.Stats.FastFails != 1 || b.Stats.Opens != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
	if b.State(now+6*time.Second-1) != Open {
		t.Fatal("probe due before 6s")
	}
	// After 6 s a probe is due.
	now += 6 * time.Second
	if b.State(now) != HalfOpen {
		t.Fatal("probe not due after 6s")
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
	if b.Allow(now + 6*time.Second - 1) {
		t.Fatal("reopened breaker admitted a probe before 6s")
	}
	now += 6 * time.Second
	if !b.Allow(now) {
		t.Fatal("second probe denied")
	}
	b.Success()
	if b.State(now) != Closed || !b.Allow(now) {
		t.Fatal("successful probe did not close")
	}
	if b.Stats.Closes != 1 || b.Stats.Probes != 2 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestBreakerConsecutiveFailureCounterResets(t *testing.T) {
	b := &Breaker{}
	for i := 0; i < 10; i++ {
		b.Failure(0)
		b.Success() // interleaved success: never two in a row
	}
	if b.State(0) != Closed {
		t.Fatal("non-consecutive failures opened the breaker")
	}
	b.Failure(0)
	b.Failure(0)
	if b.State(0) != Open {
		t.Fatal("two consecutive failures after a success did not open the breaker")
	}
}

func TestBreakerSetSharedConfigAndAggregation(t *testing.T) {
	s := NewBreakerSet()
	if len(s.order) != 0 || s.OpenFraction(0) != 0 {
		t.Fatal("empty set not neutral")
	}
	s.For("a").Failure(0)
	s.For("a").Failure(0)
	s.For("b").Failure(0) // one failure leaves b closed
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
	s := NewBreakerSet()
	s.For("early").Failure(0)
	s.For("early").Failure(0)
	read := s.Stats // what a registered reader holds: the method, not a snapshot
	bo := NewBackoff(nil)

	s.For("early").Allow(0)               // fast-fail
	s.For("early").Allow(6 * time.Second) // probe
	s.For("early").Success()
	s.For("late").Failure(7 * time.Second) // created after the reader was bound
	s.For("late").Failure(7 * time.Second)
	s.For("late").Allow(7 * time.Second)
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
