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

	adj       time.Duration
	freqAdj   float64
	freqSince time.Duration
}

// Now maps true simulation time to this host's local time. It implements
// netsim.Clock.
func (c *Clock) Now(simNow time.Duration) time.Duration {
	local := simNow + time.Duration(float64(simNow)*c.Drift) + c.Offset + c.adj
	if c.freqAdj != 0 && simNow > c.freqSince {
		local += time.Duration(c.freqAdj * float64(simNow-c.freqSince))
	}
	if c.Granularity > 0 {
		local = local / c.Granularity * c.Granularity
	}
	return local
}

// Adjust slews the clock by d, as a sync protocol would (phase step).
func (c *Clock) Adjust(d time.Duration) { c.adj += d }

// AdjustFreq changes the clock's rate correction by delta (fractional,
// e.g. -50e-6 cancels +50 ppm of drift) starting at simNow — the frequency
// discipline an NTP daemon applies once it has observed drift.
func (c *Clock) AdjustFreq(simNow time.Duration, delta float64) {
	// Fold the correction accumulated so far into the fixed offset so the
	// rate change applies only forward.
	if simNow > c.freqSince {
		c.adj += time.Duration(c.freqAdj * float64(simNow-c.freqSince))
	}
	c.freqSince = simNow
	c.freqAdj += delta
}

// ErrorAt returns the difference between local and true time at simNow —
// the residual error a perfect observer would see.
func (c *Clock) ErrorAt(simNow time.Duration) time.Duration {
	return c.Now(simNow) - simNow
}

// OffsetBetween returns the instantaneous offset a measurement between two
// hosts would need to correct: local(b) - local(a) at the same true instant.
//
//lint:allow unusedexport test-pinned by TestOffsetBetween; retire together
func OffsetBetween(a, b *Clock, simNow time.Duration) time.Duration {
	return b.Now(simNow) - a.Now(simNow)
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
