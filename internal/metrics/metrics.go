// Package metrics defines the network metrics of §4.2 of the paper and
// small statistics helpers shared by sensors and the experiment harness.
package metrics

import "math"

// Metric identifies one of the paper's network resource metrics.
type Metric int

// The three metrics of §4.2.
const (
	// Throughput is end-to-end application-layer throughput in bits/s.
	Throughput Metric = iota
	// OneWayLatency is application-to-application latency in seconds.
	OneWayLatency
	// Reachability is 1 when the destination can be reached, else 0.
	Reachability
)

func (m Metric) String() string {
	switch m {
	case Throughput:
		return "throughput"
	case OneWayLatency:
		return "one-way-latency"
	case Reachability:
		return "reachability"
	default:
		return "metric?"
	}
}

// Unit returns the measurement unit for the metric.
func (m Metric) Unit() string {
	switch m {
	case Throughput:
		return "bits/s"
	case OneWayLatency:
		return "s"
	case Reachability:
		return "bool"
	default:
		return "?"
	}
}

// Mean returns the arithmetic mean; 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation; 0 for fewer than 2 points.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// RelErr returns |got-want|/|want|, or 0 when want is 0.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}
