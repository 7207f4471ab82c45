package sketch

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzStream decodes the fuzz input: byte 0 picks how often the View is
// queried (every split+1 updates) and where the stream is split for the
// merge check, the rest is a stream of little-endian float64s
// (NaN/Inf included — Update must drop them).
func fuzzStream(data []byte) (split byte, vals []float64) {
	if len(data) == 0 {
		return 0, nil
	}
	split = data[0]
	data = data[1:]
	for i := 0; i+8 <= len(data); i += 8 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
	}
	return split, vals
}

// fuzzSeed encodes a value stream as a fuzz input.
func fuzzSeed(split byte, vals ...float64) []byte {
	out := []byte{split}
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzSketchInvariants feeds an arbitrary float64 stream through the
// sketch and checks the structural invariants that every state must
// satisfy: queries through a View equal to the oracle's at every k-th
// Update, exact counting of finite vs dropped samples, exact min/max,
// quantiles bounded by [min, max] and monotone in p, bit-exact agreement
// with Exact while in small-sample mode, and split-merge consistency —
// merging the two halves of the stream must preserve count/min/max/mean
// and produce the identical sketch on every run (merge determinism).
func FuzzSketchInvariants(f *testing.F) {
	ramp := make([]float64, 0, 300)
	for i := 0; i < 300; i++ {
		ramp = append(ramp, float64(i%97)+float64(i)/300)
	}
	f.Add(fuzzSeed(0))
	f.Add(fuzzSeed(3, 1, 2, 3, 4, 5))
	f.Add(fuzzSeed(7, math.NaN(), math.Inf(1), math.Inf(-1), 42))
	f.Add(fuzzSeed(13, 5, 5, 5, 5, 5, 5, 5, 5))
	f.Add(fuzzSeed(129, ramp...)) // past BufCap: exercises fold + grid merge
	f.Add(fuzzSeed(200, ramp[:150]...))
	// Queries after 150 and 300 updates: 22 pending beside the grid, then a
	// fold at 256 between the two leaves 44, more than the View placed, so
	// only the moved inMarkers tells the View the buffer was replaced. The
	// values are scrambled so the old and new buffers sort differently.
	scrambled := make([]float64, 0, 300)
	for i := 0; i < 300; i++ {
		scrambled = append(scrambled, float64(i*37%101)+float64(i)/1000)
	}
	f.Add(fuzzSeed(149, scrambled...))
	f.Fuzz(func(t *testing.T, data []byte) {
		split, vals := fuzzStream(data)
		var finite []float64
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				finite = append(finite, v)
			}
		}
		// Query whole through one View after every k-th Update: the view's
		// sorted order and memo must answer what the snapshot-copy oracle
		// and a fresh View do, bit for bit, across folds between queries.
		var whole Sketch
		var view View
		k := int(split) + 1
		for i, v := range vals {
			whole.Update(v)
			if (i+1)%k != 0 {
				continue
			}
			for _, p := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1, 0.3333} {
				got, zero, want := whole.QuantileWith(&view, p), whole.Quantile(p), oracleQuantile(&whole, p)
				if !sameBits(got, want) || !sameBits(zero, want) {
					t.Fatalf("after %d updates: Quantile(%v) through a View %v, fresh %v, oracle %v",
						i+1, p, got, zero, want)
				}
			}
		}
		if whole.Count() != uint64(len(finite)) {
			t.Fatalf("Count = %d, want %d", whole.Count(), len(finite))
		}
		if whole.dropped != uint64(len(vals)-len(finite)) {
			t.Fatalf("Dropped = %d, want %d", whole.dropped, len(vals)-len(finite))
		}
		if len(finite) == 0 {
			return
		}
		lo, hi := finite[0], finite[0]
		for _, v := range finite {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if whole.Min() != lo || whole.Max() != hi {
			t.Fatalf("min/max = %v/%v, want %v/%v", whole.Min(), whole.Max(), lo, hi)
		}
		probs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
		prev := math.Inf(-1)
		for _, p := range probs {
			q := whole.Quantile(p)
			if q < lo || q > hi {
				t.Fatalf("Quantile(%v) = %v outside [%v, %v]", p, q, lo, hi)
			}
			if q < prev {
				t.Fatalf("Quantile not monotone: Quantile(%v) = %v < %v", p, q, prev)
			}
			prev = q
			if whole.inMarkers == 0 {
				if want := Exact(finite, p); q != want {
					t.Fatalf("small-sample Quantile(%v) = %v, want exact %v", p, q, want)
				}
			}
		}

		// Split-merge: feeding the two halves separately and merging must
		// preserve the scalar aggregates, stay inside [min, max], and be
		// deterministic — the same split merged twice gives the same state.
		cut := int(split) % (len(vals) + 1)
		var a, b, a2, b2 Sketch
		for i, v := range vals {
			if i < cut {
				a.Update(v)
				a2.Update(v)
			} else {
				b.Update(v)
				b2.Update(v)
			}
		}
		a.Merge(&b)
		a2.Merge(&b2)
		if a != a2 {
			t.Fatal("merge is not deterministic: identical inputs gave different sketches")
		}
		if a.Count() != whole.Count() || a.Min() != lo || a.Max() != hi {
			t.Fatalf("merged count/min/max = %d/%v/%v, want %d/%v/%v",
				a.Count(), a.Min(), a.Max(), whole.Count(), lo, hi)
		}
		if mean := a.Mean(); math.Abs(mean-whole.Mean()) > 1e-9*math.Max(1, math.Abs(whole.Mean())) {
			t.Fatalf("merged mean %v, whole-stream mean %v", mean, whole.Mean())
		}
		prev = math.Inf(-1)
		for _, p := range probs {
			q := a.Quantile(p)
			if q < lo || q > hi || q < prev {
				t.Fatalf("merged Quantile(%v) = %v violates bounds/monotonicity (prev %v, range [%v, %v])",
					p, q, prev, lo, hi)
			}
			prev = q
		}
	})
}
