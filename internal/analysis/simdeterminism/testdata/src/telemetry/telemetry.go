// Package telemetry is a fixture mirroring the self-measurement layer: its
// spans take virtual time from the caller and its counts are readers over
// fields the simulation wrote, so any wall-clock read or global-rand draw
// inside the package — in a reader as much as in a span — is a determinism
// bug, and so is a lock or an atomic.
package telemetry

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

type span struct{ start, end time.Duration }

// beginAt is the sanctioned shape: virtual time flows in explicitly.
func beginAt(now time.Duration) span { return span{start: now, end: -1} }

func badBegin() span {
	now := time.Duration(time.Now().UnixNano()) // want `time\.Now reads the wall clock`
	return span{start: now, end: -1}
}

func badSampleJitter(s *span) {
	s.end = s.start + time.Duration(rand.Int63n(1000)) // want `rand\.Int63n draws from the process-global source`
}

type registry struct{ readers []func() uint64 }

func (r *registry) counterFunc(read func() uint64) { r.readers = append(r.readers, read) }

// publish is the sanctioned shape: a reader returns the owner's own field.
func publish(r *registry, sweeps *uint64) {
	r.counterFunc(func() uint64 { return *sweeps })
}

func badUptimeReader(r *registry, started time.Time) {
	r.counterFunc(func() uint64 {
		return uint64(time.Since(started)) // want `time\.Since reads the wall clock`
	})
}

// lockedRegistry guards its table as if readers ran concurrently; in sim
// code they never do.
type lockedRegistry struct {
	mu   sync.RWMutex // want `sync\.RWMutex in simulation-facing package telemetry`
	rows []func() uint64
}

// atomicHistogram counts as if two goroutines observed at once; within
// one kernel the scheduler already serializes them.
type atomicHistogram struct {
	count atomic.Uint64 // want `atomic\.Uint64 in simulation-facing package telemetry`
	sum   uint64
}

func (h *atomicHistogram) observe(v uint64) {
	h.count.Add(1)              // the method is not flagged: its receiver's type was
	atomic.AddUint64(&h.sum, v) // want `atomic\.AddUint64 in simulation-facing package telemetry`
}

// wallRegistry is read by a wall-clock sampler goroutine beside the run,
// the one shape a lock would be for; the suppression documents it.
type wallRegistry struct {
	//lint:allow mutex read by a wall-clock sampler goroutine; never held while a reader runs
	mu   sync.Mutex
	rows []func() uint64
}
