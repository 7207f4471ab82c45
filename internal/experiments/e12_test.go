package experiments

import (
	"testing"
)

func TestE12ResilienceStrictlyImproves(t *testing.T) {
	off := runDrill(true, e12Off, nil)
	on := runDrill(true, e12On, nil)

	// The layer's reason to exist: failures surface sooner because sweeps
	// stop stalling on known-dead agents...
	if on.DetectLatency >= off.DetectLatency {
		t.Fatalf("detection latency on=%v not below off=%v", on.DetectLatency, off.DetectLatency)
	}
	// ...and no decision rides on senescent data. The off run must
	// actually exhibit the failure mode for the comparison to mean
	// anything.
	if off.StaleActedReads == 0 {
		t.Fatal("baseline run never acted on stale data; chaos schedule too gentle to discriminate")
	}
	if on.StaleActedReads >= off.StaleActedReads {
		t.Fatalf("stale acted reads on=%d not below off=%d", on.StaleActedReads, off.StaleActedReads)
	}
	// The breaker must have actually intervened, not just been configured.
	if on.FastFails == 0 {
		t.Fatal("resilience run recorded no fast-failed polls")
	}
}

func TestE12Deterministic(t *testing.T) {
	a := runDrill(true, e12On, nil)
	b := runDrill(true, e12On, nil)
	if a != b {
		t.Fatalf("E12 run not seed-stable:\n  first  %+v\n  second %+v", a, b)
	}
	c := runDrill(true, e12Off, nil)
	d := runDrill(true, e12Off, nil)
	if c != d {
		t.Fatalf("E12 baseline not seed-stable:\n  first  %+v\n  second %+v", c, d)
	}
}
