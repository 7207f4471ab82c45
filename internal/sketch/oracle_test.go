package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleQuantile is the query as it was before View: a value copy of the
// sketch with its pending buffer folded in (in exact mode, a sorted copy
// of the buffer), read at p. Whatever its View holds, QuantileWith must
// answer exactly this, bit for bit. A NaN p is NaN here as it is there;
// the copy used to panic on it in exact mode and read Max in marker mode.
func oracleQuantile(s *Sketch, p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if s.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	if s.inMarkers == 0 {
		var tmp [BufCap]float64
		copy(tmp[:s.nbuf], s.buf[:s.nbuf])
		sortFloats(tmp[:s.nbuf])
		return quantileSorted(tmp[:s.nbuf], p)
	}
	t := *s
	t.fold()
	return markerQuantile(&t.q, p)
}

// oracleProbes are the p a query is asked at: on the grid, off it, out of
// range, -0 and NaN.
var oracleProbes = []float64{
	0, 1e-4, 0.5, 0.95, 0.99, 1,
	0.123, 0.37, 0.9991, 0.99995,
	-0.25, 1.5, math.Inf(-1), math.Inf(1), math.Copysign(0, -1), math.NaN(),
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstOracle asks s at every probe through v (twice, so the second
// answer is v's memo), through a zero View and through the oracle, and
// fails unless all agree bit for bit. It also holds Summary to three
// Quantile calls and checks that no query changed s.
func checkAgainstOracle(t *testing.T, s *Sketch, v *View, where string) {
	t.Helper()
	before := *s
	for _, p := range oracleProbes {
		want := oracleQuantile(s, p)
		for _, got := range [...]float64{s.QuantileWith(v, p), s.QuantileWith(v, p), s.Quantile(p)} {
			if !sameBits(got, want) {
				t.Fatalf("%s: p=%v: got %v (%#x), oracle %v (%#x)",
					where, p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	sum := s.Summary()
	if !sameBits(sum.P50, s.Quantile(0.50)) || !sameBits(sum.P95, s.Quantile(0.95)) ||
		!sameBits(sum.P99, s.Quantile(0.99)) {
		t.Fatalf("%s: Summary P50/P95/P99 %v/%v/%v, Quantile %v/%v/%v", where,
			sum.P50, sum.P95, sum.P99, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
	}
	if *s != before {
		t.Fatalf("%s: a query changed the sketch", where)
	}
}

// oracleValue draws an observation. A trial with zeros set draws only
// -0, +0 and 1, so ties between the two zeros sit at the minimum where
// Quantile(0) reads them and an unstable sort would show; otherwise half
// the draws repeat a few small integers and half are continuous.
func oracleValue(rng *rand.Rand, zeros bool) float64 {
	if zeros {
		return [...]float64{math.Copysign(0, -1), 0, 1}[rng.Intn(3)]
	}
	switch r := rng.Intn(10); {
	case r < 4:
		return float64(rng.Intn(5) - 2)
	case r < 5:
		return math.Copysign(0, -1)
	case r < 8:
		return rng.NormFloat64() * 3
	default:
		return rng.ExpFloat64() * 10
	}
}

// mergeBranch names the branch of Merge that folding o into s takes.
func mergeBranch(s, o *Sketch) string {
	switch {
	case o.count == 0:
		return "empty argument"
	case s.count == 0:
		return "adopt"
	case s.inMarkers == 0 && o.inMarkers == 0 && s.nbuf+o.nbuf <= BufCap:
		return "exact union"
	case o.inMarkers == 0:
		return "replay argument"
	case s.inMarkers == 0:
		return "replay receiver"
	default:
		return "combine grids"
	}
}

// TestQuantileWithMatchesOracle drives random interleavings of Update
// (NaN included), Merge down all of its branches and queries into one
// sketch that keeps one View, and after every step holds QuantileWith to
// the snapshot-copy query it replaced.
func TestQuantileWithMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	branches := map[string]int{}
	type state struct {
		exact bool
		nbuf  int
	}
	seen := map[state]int{}
	for trial := 0; trial < 60; trial++ {
		zeros := trial%5 == 0
		var s Sketch
		var v View
		// Start at an exact-mode buffer edge; the steps take it from there.
		for n := [...]int{0, 1, BufCap - 2, BufCap - 1}[trial%4]; n > 0; n-- {
			s.Update(oracleValue(rng, zeros))
		}
		for step := 0; step < 35; step++ {
			switch r := rng.Intn(20); {
			case r < 12:
				s.Update(oracleValue(rng, zeros))
			case r < 13:
				s.Update(math.NaN())
			case r < 15:
				for n := rng.Intn(2 * BufCap); n > 0; n-- {
					s.Update(oracleValue(rng, zeros))
				}
			default:
				var o Sketch
				n := [...]int{0, 1, rng.Intn(BufCap), BufCap - 1, BufCap + rng.Intn(3*BufCap)}[rng.Intn(5)]
				for ; n > 0; n-- {
					o.Update(oracleValue(rng, zeros))
				}
				branches[mergeBranch(&s, &o)]++
				s.Merge(&o)
			}
			if s.count > 0 {
				seen[state{s.inMarkers == 0, s.nbuf}]++
			}
			checkAgainstOracle(t, &s, &v, fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
	for _, b := range []string{"empty argument", "adopt", "exact union", "replay argument", "replay receiver", "combine grids"} {
		if branches[b] < 3 {
			t.Errorf("Merge branch %q taken %d times, want at least 3", b, branches[b])
		}
	}
	for _, st := range []state{{true, 1}, {true, BufCap - 1}, {false, 0}, {false, 1}, {false, BufCap - 1}} {
		if seen[st] == 0 {
			t.Errorf("no query met exact=%v nbuf=%d", st.exact, st.nbuf)
		}
	}
}
