package experiments

import (
	"strings"
	"testing"
)

// TestE13ZeroPerturbation asserts the telemetry layer's observer effect is
// nil: the chaos run's simulation-visible outcome is bit-identical with
// instruments attached and detached, and the instrumented run actually
// collected something.
func TestE13ZeroPerturbation(t *testing.T) {
	off := runE13(true, false)
	on := runE13(true, true)
	if off.DetectLatency != on.DetectLatency {
		t.Errorf("detection latency perturbed: off %v, on %v", off.DetectLatency, on.DetectLatency)
	}
	if off.Sweeps != on.Sweeps {
		t.Errorf("sweeps perturbed: off %d, on %d", off.Sweeps, on.Sweeps)
	}
	if off.FastFails != on.FastFails {
		t.Errorf("fast-fails perturbed: off %d, on %d", off.FastFails, on.FastFails)
	}
	if off.Records != on.Records {
		t.Errorf("db records perturbed: off %d, on %d", off.Records, on.Records)
	}
	if off.ProcSwitches != on.ProcSwitches || on.ProcSwitches == 0 {
		t.Errorf("proc switches perturbed or uncounted: off %d, on %d", off.ProcSwitches, on.ProcSwitches)
	}
	if off.Instruments != 0 || off.Spans != 0 {
		t.Errorf("disabled run reported instruments=%d spans=%d, want 0/0", off.Instruments, off.Spans)
	}
	if on.Instruments == 0 {
		t.Error("instrumented run registered no instruments")
	}
	if on.Spans == 0 {
		t.Error("instrumented run traced no spans")
	}
	if on.reg.Counter("cots.snmp.requests").Value() == 0 {
		t.Error("snmp request counter never incremented")
	}
}

// BenchmarkE13ChaosTelemetryOff and ...On measure the wall-clock cost of
// the full instrumented stack on the chaos run — the <2% overhead budget
// EXPERIMENTS.md publishes. Compare: go test -bench 'E13Chaos' -count 5.
func BenchmarkE13ChaosTelemetryOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runE13(true, false)
	}
}

func BenchmarkE13ChaosTelemetryOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runE13(true, true)
	}
}

// TestE13Deterministic runs the full experiment twice and requires
// byte-identical tables — the registry exports in registration order and
// nothing in the table derives from the wall clock.
func TestE13Deterministic(t *testing.T) {
	a := E13(true).String()
	b := E13(true).String()
	if a != b {
		t.Fatalf("E13 diverged between runs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "observer effect: none") {
		t.Fatalf("E13 table missing zero-perturbation note:\n%s", a)
	}
	if !strings.Contains(a, "trace: cots.sweep") {
		t.Fatalf("E13 table missing sweep trace:\n%s", a)
	}
}
