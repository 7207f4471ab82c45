// Package telemetry is a fixture mirroring the self-measurement layer: its
// spans take virtual time from the caller and its counts are readers over
// fields the simulation wrote, so any wall-clock read or global-rand draw
// inside the package — in a reader as much as in a span — is a determinism
// bug, and so is a lock.
package telemetry

import (
	"math/rand"
	"sync"
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

// sharedRegistry is reached from parallel experiment goroutines, outside
// any one simulation.
type sharedRegistry struct {
	//lint:allow mutex registration from parallel runs; never held while a reader runs
	mu   sync.Mutex
	rows []func() uint64
}
