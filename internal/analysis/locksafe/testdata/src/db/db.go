// Package db is a fixture mirroring the measurement database's sketch
// query paths: Quantile/Summary reads and cross-shard MergeSketchInto are
// plain in-memory aggregation, so guarding them with a mutex is fine —
// but the lock must never be held across a kernel yield point (e.g. while
// waiting out a federation barrier before folding in a peer's sketch).
package db

import (
	"sync"

	"sim"
)

type sketchState struct {
	count   uint64
	markers [5]float64
}

type database struct {
	mu       sync.Mutex
	sketches map[string]*sketchState
}

// quantile is the sanctioned shape: lock, read the summary, unlock —
// the whole query is arithmetic, no yield.
func (db *database) quantile(id string) float64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.sketches[id]; ok {
		return s.markers[2]
	}
	return 0
}

// mergeInto folds one series' sketch into dst entirely under the lock —
// fine, the fold never yields.
func (db *database) mergeInto(dst *sketchState, id string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if s, ok := db.sketches[id]; ok {
		dst.count += s.count
	}
}

func badMergeAcrossBarrier(db *database, g *sim.ShardGroup, dst *sketchState) {
	db.mu.Lock()
	defer db.mu.Unlock()
	g.Run() // want `sim yield point Run called while holding db\.mu`
	for _, s := range db.sketches {
		dst.count += s.count
	}
}

func badQuantileAfterSweep(db *database, p *sim.Proc, id string) float64 {
	db.mu.Lock()
	p.Sleep(10) // want `sim yield point Sleep called while holding db\.mu`
	q := db.sketches[id].markers[2]
	db.mu.Unlock()
	return q
}
