package sketch

import "testing"

// benchFill returns a sketch fed n samples from a deterministic ramp —
// past BufCap so the benchmark measures the steady-state marker path, not
// the exact small-sample mode.
func benchFill(n int, phase float64) *Sketch {
	var s Sketch
	for i := 0; i < n; i++ {
		s.Update(phase + float64(i%997)/997)
	}
	return &s
}

// BenchmarkSketchUpdate measures the steady-state cost of one Update on a
// warm sketch: the common case is a buffer append; every BufCap-th call
// pays for a fold into the marker grid. TestUpdateAllocatesNothing keeps
// the whole path allocation-free.
func BenchmarkSketchUpdate(b *testing.B) {
	s := benchFill(4*BufCap, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(float64(i%997) / 997)
	}
}

// TestUpdateAllocatesNothing: 3·BufCap updates, and so three folds into
// the marker grid, allocate nothing — the fold's scratch is on the stack.
func TestUpdateAllocatesNothing(t *testing.T) {
	s := benchFill(4*BufCap, 0)
	i := 0
	if n := testing.AllocsPerRun(20, func() {
		for j := 0; j < 3*BufCap; j++ {
			s.Update(float64(i%997) / 997)
			i++
		}
	}); n != 0 {
		t.Fatalf("%d updates allocate %v objects, want 0", 3*BufCap, n)
	}
	if want := uint64(4*BufCap + i); s.Count() != want {
		t.Fatalf("count %d, want %d", s.Count(), want)
	}
}

// TestQuantileWithAllocatesNothing: queries through a View between
// updates — memo hits, incremental sorts, restarts after a fold, and the
// fold of the pending buffer into stack scratch — allocate nothing.
func TestQuantileWithAllocatesNothing(t *testing.T) {
	s := benchFill(4*BufCap+BufCap/2, 0)
	var v View
	i, acc := 0, 0.0
	if n := testing.AllocsPerRun(20, func() {
		for j := 0; j < 3*BufCap; j++ {
			s.Update(float64(i%997) / 997)
			i++
			if j%4 == 3 {
				acc += s.QuantileWith(&v, 0.95) + s.QuantileWith(&v, 0.95) + s.QuantileWith(&v, 0.3)
			}
		}
	}); n != 0 {
		t.Fatalf("%d updates and %d queries allocate %v objects, want 0", 3*BufCap, 3*BufCap/4*3, n)
	}
	if acc <= 0 {
		t.Fatalf("queries summed to %v", acc)
	}
}

// BenchmarkSketchMerge measures folding one warm sketch into another —
// the per-series cost of a federation roll-up.
func BenchmarkSketchMerge(b *testing.B) {
	src := benchFill(4*BufCap, 0.25)
	base := benchFill(4*BufCap, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := *base
		dst.Merge(src)
	}
}
