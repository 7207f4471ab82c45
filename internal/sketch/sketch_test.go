package sketch

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func TestGridShape(t *testing.T) {
	if grid[0] != 0 || grid[Markers-1] != 1 {
		t.Fatalf("grid endpoints = %v, %v; want 0, 1", grid[0], grid[Markers-1])
	}
	for j := 1; j < Markers; j++ {
		if grid[j] <= grid[j-1] {
			t.Fatalf("grid not strictly increasing at %d: %v <= %v", j, grid[j], grid[j-1])
		}
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		found := false
		for _, g := range grid {
			if g == p {
				found = true
			}
		}
		if !found {
			t.Errorf("query target %v not exactly on grid", p)
		}
	}
}

func TestEmpty(t *testing.T) {
	var s Sketch
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	sum := s.Summary()
	if sum.Count != 0 || sum.Min != 0 || sum.Max != 0 || sum.Mean != 0 {
		t.Errorf("empty Summary = %+v", sum)
	}
}

// TestExactMode: while all observations fit in the buffer, quantiles are
// exactly the Hazen empirical quantiles and Exact() reports true.
func TestExactMode(t *testing.T) {
	var s Sketch
	xs := []float64{5, 1, 4, 2, 3}
	for _, x := range xs {
		s.Update(x)
	}
	if s.inMarkers != 0 {
		t.Fatal("sketch left exact mode with count < BufCap")
	}
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.77, 0.95, 0.99, 1} {
		if got, want := s.Quantile(p), Exact(xs, p); got != want {
			t.Errorf("Quantile(%v) = %v, want exact %v", p, got, want)
		}
	}
	if s.Min() != 1 || s.Max() != 5 || s.Mean() != 3 {
		t.Errorf("min/max/mean = %v/%v/%v, want 1/5/3", s.Min(), s.Max(), s.Mean())
	}
}

// TestGracefulDegrade: crossing the buffer boundary keeps on-grid
// quantiles close to exact.
func TestGracefulDegrade(t *testing.T) {
	var s Sketch
	rng := rand.New(rand.NewSource(7))
	var all []float64
	for i := 0; i < 10*BufCap; i++ {
		v := rng.Float64() * 100
		all = append(all, v)
		s.Update(v)
	}
	if s.inMarkers == 0 {
		t.Fatal("sketch still exact after 10*BufCap updates")
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		got, want := s.Quantile(p), Exact(all, p)
		if relErr(got, want) > 0.02 {
			t.Errorf("Quantile(%v) = %v, exact %v: rel err %.4f > 2%%",
				p, got, want, relErr(got, want))
		}
	}
}

func TestQuantileMonotoneAndBounded(t *testing.T) {
	var s Sketch
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		s.Update(rng.NormFloat64()*10 + 50)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := s.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v)=%v < %v", p, q, prev)
		}
		if q < s.Min() || q > s.Max() {
			t.Fatalf("Quantile(%v)=%v outside [%v, %v]", p, q, s.Min(), s.Max())
		}
		prev = q
	}
}

// TestQueryDoesNotMutate: interleaving queries must not change the
// sketch's state evolution (queries fold into scratch; state depends only
// on the Update/Merge sequence).
func TestQueryDoesNotMutate(t *testing.T) {
	var a, b Sketch
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 333; i++ {
		v := rng.ExpFloat64()
		a.Update(v)
		b.Update(v)
		if i%7 == 0 {
			_ = a.Quantile(0.95) // a gets queried mid-stream, b does not
			_ = a.Summary()
		}
	}
	if a != b {
		t.Fatal("mid-stream queries changed the sketch state")
	}
}

func TestConstantSeries(t *testing.T) {
	var s Sketch
	for i := 0; i < 1000; i++ {
		s.Update(42)
	}
	for _, p := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := s.Quantile(p); got != 42 {
			t.Errorf("constant series Quantile(%v) = %v, want 42", p, got)
		}
	}
	if s.Min() != 42 || s.Max() != 42 || s.Mean() != 42 {
		t.Errorf("constant series min/max/mean = %v/%v/%v", s.Min(), s.Max(), s.Mean())
	}
}

func TestNonFiniteDropped(t *testing.T) {
	var s Sketch
	s.Update(1)
	s.Update(math.NaN())
	s.Update(math.Inf(1))
	s.Update(math.Inf(-1))
	s.Update(2)
	if s.Count() != 2 || s.dropped != 3 {
		t.Fatalf("count=%d dropped=%d, want 2, 3", s.Count(), s.dropped)
	}
	if s.Min() != 1 || s.Max() != 2 {
		t.Errorf("min/max = %v/%v, want 1/2", s.Min(), s.Max())
	}
}

// TestQuantileNaN: a NaN p has no answer — NaN in exact mode, in marker
// mode (with and without pending observations) and from Exact. Exact mode
// and Exact used to panic indexing at int(NaN); marker mode returned Max.
func TestQuantileNaN(t *testing.T) {
	var exact, marker, folded Sketch
	var xs []float64
	for i := 0; i < 2*BufCap+BufCap/2; i++ {
		x := float64(i%41) + 0.5
		if i < BufCap/2 {
			exact.Update(x)
			xs = append(xs, x)
		}
		marker.Update(x)
		if i < 2*BufCap {
			folded.Update(x)
		}
	}
	if exact.inMarkers != 0 || marker.inMarkers == 0 || marker.nbuf == 0 || folded.nbuf != 0 {
		t.Fatalf("modes not reached: exact inMarkers %d, marker nbuf %d, folded nbuf %d",
			exact.inMarkers, marker.nbuf, folded.nbuf)
	}
	for _, tc := range []struct {
		name string
		s    *Sketch
	}{{"exact", &exact}, {"marker", &marker}, {"folded", &folded}} {
		name, s := tc.name, tc.s
		var v View
		if got := s.Quantile(math.NaN()); !math.IsNaN(got) {
			t.Errorf("%s mode: Quantile(NaN) = %v, want NaN", name, got)
		}
		if got := s.QuantileWith(&v, math.NaN()); !math.IsNaN(got) {
			t.Errorf("%s mode: QuantileWith(NaN) = %v, want NaN", name, got)
		}
		if sum := s.Summary(); math.IsNaN(sum.P50) || math.IsNaN(sum.P99) {
			t.Errorf("%s mode: Summary %+v after a NaN query", name, sum)
		}
	}
	if got := Exact(xs, math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exact(xs, NaN) = %v, want NaN", got)
	}
	if got := Exact(xs[:1], math.NaN()); !math.IsNaN(got) {
		t.Errorf("Exact(one sample, NaN) = %v, want NaN", got)
	}
}

func TestThresholdCounters(t *testing.T) {
	var s Sketch
	s.SetThresholds(Thresholds{Stall: 1.0, MicroStall: 0.2})
	for _, v := range []float64{0.05, 0.3, 0.5, 1.5, 2.0, 0.1} {
		s.Update(v)
	}
	stalls, micro := s.stalls, s.microStalls
	if stalls != 2 || micro != 2 {
		t.Errorf("stalls=%d micro=%d, want 2, 2", stalls, micro)
	}
	sum := s.Summary()
	if sum.Stalls != 2 || sum.MicroStalls != 2 {
		t.Errorf("summary counters = %d/%d, want 2/2", sum.Stalls, sum.MicroStalls)
	}
}

// TestMergeCountExact: Merge combines counts, sums, extremes and counters
// exactly, for every combination of exact/estimating operands.
func TestMergeCountExact(t *testing.T) {
	sizes := []int{0, 3, BufCap - 1, BufCap, 5 * BufCap, 200}
	for _, na := range sizes {
		for _, nb := range sizes {
			var a, b Sketch
			a.SetThresholds(Thresholds{Stall: 90})
			b.SetThresholds(Thresholds{Stall: 90})
			rng := rand.New(rand.NewSource(int64(na*1000 + nb)))
			var min, max, sum float64
			n := 0
			feed := func(s *Sketch, count int) {
				for i := 0; i < count; i++ {
					v := rng.Float64() * 100
					s.Update(v)
					if n == 0 || v < min {
						min = v
					}
					if n == 0 || v > max {
						max = v
					}
					sum += v
					n++
				}
			}
			feed(&a, na)
			feed(&b, nb)
			wantStalls := a.stalls + b.stalls
			bCopy := b
			a.Merge(&b)
			if b != bCopy {
				t.Fatalf("(%d,%d): Merge mutated its argument", na, nb)
			}
			if a.Count() != uint64(na+nb) {
				t.Fatalf("(%d,%d): merged count = %d, want %d", na, nb, a.Count(), na+nb)
			}
			if n > 0 && (a.Min() != min || a.Max() != max) {
				t.Errorf("(%d,%d): merged min/max = %v/%v, want %v/%v", na, nb, a.Min(), a.Max(), min, max)
			}
			if st := a.stalls; st != wantStalls {
				t.Errorf("(%d,%d): merged stalls = %d, want %d", na, nb, st, wantStalls)
			}
			if n > 0 && relErr(a.Mean(), sum/float64(n)) > 1e-9 {
				t.Errorf("(%d,%d): merged mean = %v, want %v", na, nb, a.Mean(), sum/float64(n))
			}
		}
	}
}

// TestMergeVsSequential: merging two half-streams approximates feeding the
// concatenated stream to one sketch, and both stay near exact.
func TestMergeVsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var seq, a, b Sketch
	var all []float64
	for i := 0; i < 400; i++ {
		v := rng.NormFloat64()*5 + 100
		all = append(all, v)
		seq.Update(v)
		if i < 200 {
			a.Update(v)
		} else {
			b.Update(v)
		}
	}
	a.Merge(&b)
	if a.Count() != seq.Count() {
		t.Fatalf("merged count %d != sequential %d", a.Count(), seq.Count())
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		exact := Exact(all, p)
		if e := relErr(a.Quantile(p), exact); e > 0.02 {
			t.Errorf("merged Quantile(%v): rel err %.4f vs exact", p, e)
		}
		if e := relErr(seq.Quantile(p), exact); e > 0.02 {
			t.Errorf("sequential Quantile(%v): rel err %.4f vs exact", p, e)
		}
		if e := relErr(a.Quantile(p), seq.Quantile(p)); e > 0.04 {
			t.Errorf("merge vs sequential divergence at p=%v: %.4f", p, e)
		}
	}
}

// TestMergeDeterministic: the same merge sequence produces bit-identical
// sketches — the property federation at fixed merge order relies on.
func TestMergeDeterministic(t *testing.T) {
	build := func() Sketch {
		parts := make([]Sketch, 4)
		for i := range parts {
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for j := 0; j < 77+i*13; j++ {
				parts[i].Update(rng.ExpFloat64() * float64(i+1))
			}
		}
		var agg Sketch
		for i := range parts {
			agg.Merge(&parts[i])
		}
		return agg
	}
	x, y := build(), build()
	if x != y {
		t.Fatal("identical merge sequences produced different sketches")
	}
}

// TestMergeIntoEmpty: merging into a zero sketch adopts the argument.
func TestMergeIntoEmpty(t *testing.T) {
	var a, b Sketch
	for i := 0; i < 100; i++ {
		b.Update(float64(i))
	}
	a.Merge(&b)
	if a.Count() != 100 || a.Min() != 0 || a.Max() != 99 {
		t.Fatalf("adopt merge: count=%d min=%v max=%v", a.Count(), a.Min(), a.Max())
	}
	for _, p := range []float64{0.5, 0.95} {
		if a.Quantile(p) != b.Quantile(p) {
			t.Errorf("adopt merge Quantile(%v) = %v, want %v", p, a.Quantile(p), b.Quantile(p))
		}
	}
}

// TestMergeExactFillThenUpdate: a merge of two exact sketches whose union
// fills the buffer exactly must fold, so the next Update (or further
// merge) has buffer space. Regression: the exact-union path used to leave
// nbuf == BufCap, and the following ingest indexed past the buffer.
func TestMergeExactFillThenUpdate(t *testing.T) {
	for _, split := range []int{1, BufCap / 2, BufCap - 1} {
		var a, b Sketch
		for i := 0; i < split; i++ {
			a.Update(float64(i))
		}
		for i := split; i < BufCap; i++ {
			b.Update(float64(i))
		}
		a.Merge(&b)
		a.Update(float64(BufCap)) // must not panic
		if a.Count() != uint64(BufCap+1) {
			t.Fatalf("split %d: count = %d, want %d", split, a.Count(), BufCap+1)
		}
		if a.Max() != float64(BufCap) {
			t.Fatalf("split %d: max = %v, want %v", split, a.Max(), float64(BufCap))
		}
	}
}

func TestBytesFixed(t *testing.T) {
	var a, b Sketch
	for i := 0; i < 10000; i++ {
		a.Update(float64(i % 97))
	}
	if a.Bytes() != b.Bytes() {
		t.Fatalf("Bytes varies with content: %d vs %d", a.Bytes(), b.Bytes())
	}
	if a.Bytes() != 2048 {
		t.Errorf("sketch footprint %d B, want 2,048 (E15's bytes/series column)", a.Bytes())
	}
	if n := unsafe.Sizeof(View{}); n != 168 {
		t.Errorf("View is %d B, want the 168 DESIGN §12 states", n)
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
