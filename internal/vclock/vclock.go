// Package vclock models per-host clocks in a simulated distributed system.
//
// Each host clock has a fixed offset and a drift rate relative to true
// simulation time. One-way latency measurement needs the offset between two
// host clocks (§5.1.3 of the paper); this package provides both mechanisms
// the paper weighs against each other: a per-measurement offset exchange
// (NTTCP's built-in method) and a background NTP-like synchronization
// protocol that amortizes its traffic over many measurements.
package vclock

import "time"

// Clock is a host-local clock: local = sim*(1+Drift) + Offset, further
// shifted by any accumulated adjustment applied by a sync protocol.
type Clock struct {
	// Offset is the initial displacement from true time.
	Offset time.Duration
	// Drift is the fractional rate error (e.g. 50e-6 is 50 ppm, a typical
	// workstation crystal).
	Drift float64
	// Granularity, when non-zero, quantizes readings — the coarse clock
	// granularity §5.2.4 observed in probes and routers.
	Granularity time.Duration

	adj time.Duration
}

// Now maps true simulation time to this host's local time. It implements
// netsim.Clock.
func (c *Clock) Now(simNow time.Duration) time.Duration {
	local := simNow + time.Duration(float64(simNow)*c.Drift) + c.Offset + c.adj
	if g := c.Granularity; g > 0 {
		// Floor, not truncation: a negative reading must not show a tick
		// that has not happened yet.
		r := local % g
		if r < 0 {
			r += g
		}
		local -= r
	}
	return local
}

// Adjust slews the clock by d, as a sync protocol would (phase step).
func (c *Clock) Adjust(d time.Duration) { c.adj += d }

// ErrorAt returns the difference between local and true time at simNow —
// the residual error a perfect observer would see.
func (c *Clock) ErrorAt(simNow time.Duration) time.Duration {
	return c.Now(simNow) - simNow
}

// EstimateOffset implements the classic two-timestamp exchange estimator
// used by both NTTCP's offset computation and NTP: given the client send
// time t1, server receive/transmit time t2 (one timestamp in this model),
// and client receive time t4, all in each host's local clock, the offset of
// the server clock relative to the client is estimated assuming symmetric
// path delays.
func EstimateOffset(t1, t2, t4 time.Duration) time.Duration {
	// offset = t2 - (t1+t4)/2
	return t2 - (t1+t4)/2
}

// Sample is one offset estimate with the round-trip time that produced it;
// estimators prefer samples with small RTT.
type Sample struct {
	Offset time.Duration
	RTT    time.Duration
}

// BestSample returns the sample with the minimum RTT, the standard NTP
// clock-filter choice; ok is false when samples is empty.
func BestSample(samples []Sample) (Sample, bool) {
	if len(samples) == 0 {
		return Sample{}, false
	}
	best := samples[0]
	for _, s := range samples[1:] {
		if s.RTT < best.RTT {
			best = s
		}
	}
	return best, true
}
