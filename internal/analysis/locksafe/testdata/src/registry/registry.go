// Package registry is a fixture mirroring the telemetry registry: a table
// of named readers. Registration under a mutex is fine, and so is a dump
// that copies the rows out and calls the readers unlocked; the lock must
// never be held across a scheduler yield point — and a reader is
// caller-supplied code that may reach one.
package registry

import (
	"sync"

	"sim"
)

type row struct {
	name string
	read func() uint64
}

type registry struct {
	mu   sync.Mutex
	rows []row
}

// register is the sanctioned shape: lock, touch the table, unlock — no yield.
func (r *registry) register(name string, read func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rows = append(r.rows, row{name, read})
}

// export is the sanctioned dump: the rows are copied under the lock and the
// readers run after it is released.
func (r *registry) export(p *sim.Proc) uint64 {
	r.mu.Lock()
	rows := append([]row(nil), r.rows...)
	r.mu.Unlock()
	var sum uint64
	for _, rw := range rows {
		sum += rw.read()
	}
	p.Yield() // unlocked: fine
	return sum
}

// queueDepth is a reader that parks its caller, as one that drains a
// sim.Queue would.
func queueDepth(q *sim.Queue, p *sim.Proc) uint64 {
	n, _ := q.Get(p, 0)
	return uint64(n)
}

func badReaderUnderLock(r *registry, q *sim.Queue, p *sim.Proc) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return queueDepth(q, p) // want `call to queueDepth may reach sim yield point Queue\.Get \(call path queueDepth -> Queue\.Get\) while holding r\.mu`
}

func badExportDuringRun(r *registry, p *sim.Proc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p.Sleep(10) // want `sim yield point Sleep called while holding r\.mu`
}
