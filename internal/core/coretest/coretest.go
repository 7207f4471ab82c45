// Package coretest holds checks over the core measurement store for the
// tests of the packages that fill one.
package coretest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// HistoryInOrder walks the retained history of every (path, metric) series
// of paths × mets and fails t on a series that is empty or that holds a
// sample taken before the one recorded ahead of it: once a fresher sample
// is current, an older one must not supersede it.
func HistoryInOrder(t testing.TB, db *core.Database, paths []core.Path, mets []metrics.Metric) {
	t.Helper()
	for _, p := range paths {
		for _, metric := range mets {
			n, inversions := 0, 0
			var prev, older, newer core.Measurement
			db.EachHistory(p.ID, metric, 0, func(m core.Measurement) bool {
				if n > 0 && m.TakenAt < prev.TakenAt {
					if inversions == 0 {
						older, newer = m, prev
					}
					inversions++
				}
				prev = m
				n++
				return true
			})
			switch {
			case n == 0:
				t.Errorf("(%s, %s): no history", p.ID, metric)
			case inversions > 0:
				t.Errorf("(%s, %s): %d of %d samples are older than the one before them; the first, taken at %v, came after one taken at %v (%v after %v)",
					p.ID, metric, inversions, n, older.TakenAt, newer.TakenAt, older, newer)
			}
		}
	}
}
