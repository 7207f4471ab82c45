package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMetricNamesAndUnits(t *testing.T) {
	cases := []struct {
		m          Metric
		name, unit string
	}{
		{Throughput, "throughput", "bits/s"},
		{OneWayLatency, "one-way-latency", "s"},
		{Reachability, "reachability", "bool"},
	}
	for _, c := range cases {
		if c.m.String() != c.name || c.m.Unit() != c.unit {
			t.Fatalf("%v: %q/%q", c.m, c.m.String(), c.m.Unit())
		}
	}
	if Metric(99).String() != "metric?" || Metric(99).Unit() != "?" {
		t.Fatal("unknown metric formatting")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("mean = %v", got)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", got, want)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty/single-point edge cases")
	}
}

func TestMinMaxAndRelErr(t *testing.T) {
	if RelErr(110, 100) != 0.1 {
		t.Fatalf("relerr = %v", RelErr(110, 100))
	}
	if RelErr(90, 100) != 0.1 {
		t.Fatal("relerr not absolute")
	}
	if RelErr(5, 0) != 0 {
		t.Fatal("relerr with zero want")
	}
}

func TestPropertyStatsInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		min, max := xs[0], xs[0]
		for _, x := range xs {
			min, max = math.Min(min, x), math.Max(max, x)
		}
		if mean := Mean(xs); mean < min-1e-9 || mean > max+1e-9 {
			return false
		}
		// The deviation is non-negative and no wider than the range.
		sd := StdDev(xs)
		return sd >= 0 && sd <= max-min+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
