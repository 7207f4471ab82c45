package telemetry_test

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The disabled benchmarks measure the cost a completely uninstrumented
// deployment pays for the push instruments' existence: one nil test per
// call site. The acceptance bar is 0 B/op and single-digit ns/op. Counts
// and gauges cost nothing to benchmark: they are their owner's fields.

func BenchmarkDisabledHistObserve(b *testing.B) {
	var reg *telemetry.Registry
	h := reg.Histogram("x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var tr *telemetry.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("s", "tag", 0)
		sp.End(0)
	}
}

func BenchmarkEnabledHistObserve(b *testing.B) {
	h := telemetry.NewRegistry().Histogram("x", []float64{1, 10, 100, 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 2000))
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := telemetry.NewTracer("bench", 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("s", "tag", time.Duration(i))
		sp.End(time.Duration(i + 1))
	}
}
