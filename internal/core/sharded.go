package core

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/sketch"
)

// ShardedMonitor splits one request over per-region monitors by path owner
// at wiring time, and after the run merges their per-path sketches in
// sorted path order. In a sharded simulation each region runs its own
// director close to its sensors, on its region's shard; ShardedMonitor only
// decides which of them collects each path.
//
// It offers no reads. A member's database belongs to the member's shard
// while the run goes, so a mid-run read through ShardedMonitor would touch
// another shard's state from the caller's goroutine, which the ownership
// rule (DESIGN §11) forbids. A mid-run reader runs on the owning region's
// kernel and asks that region's monitor (Owner names it). The one
// federating Monitor is the director tree (internal/director).
type ShardedMonitor struct {
	members []Monitor
	owner   func(Path) int
	byPath  map[PathID]int
}

// NewShardedMonitor builds the split. owner maps a path to the index of the
// member monitor that must collect it (typically: the shard or region of
// the path's origin host).
func NewShardedMonitor(owner func(Path) int, members ...Monitor) *ShardedMonitor {
	if len(members) == 0 {
		panic("core: ShardedMonitor needs at least one member")
	}
	return &ShardedMonitor{
		members: members,
		owner:   owner,
		byPath:  make(map[PathID]int),
	}
}

// Owner returns the index of the member collecting the given path under the
// current request, if any.
func (s *ShardedMonitor) Owner(path PathID) (int, bool) {
	i, ok := s.byPath[path]
	return i, ok
}

// Submit splits the request's path list by owner and submits one
// sub-request per member. Members with no owned paths receive an empty
// request, clearing any previous one. The owner map is rebuilt from this
// request alone: a new request replaces the old, so a path it drops has no
// owner.
func (s *ShardedMonitor) Submit(req Request) {
	clear(s.byPath)
	split := make([][]Path, len(s.members))
	for _, p := range req.Paths {
		i := s.owner(p)
		if i < 0 || i >= len(s.members) {
			panic("core: ShardedMonitor owner index out of range")
		}
		s.byPath[p.ID] = i
		split[i] = append(split[i], p)
	}
	for i, m := range s.members {
		m.Submit(Request{Paths: split[i], Metrics: req.Metrics})
	}
}

// AggregateSketch merges the owning members' per-path sketches for metric
// into one summary sketch — the roll-up a hierarchical director exports
// upward. Call it after the run. Paths are merged in globally sorted order,
// NOT member order: each path's sketch is identical no matter which shard
// collected it (sampling is shard-transparent), so fixing the merge
// sequence by path makes the aggregate bit-identical at any shard count.
// A path the current request does not name is skipped. ok is false when no
// path had a live sketch.
func (s *ShardedMonitor) AggregateSketch(metric metrics.Metric, paths []PathID) (sketch.Sketch, bool) {
	sorted := append([]PathID(nil), paths...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var agg sketch.Sketch
	found := false
	for i, p := range sorted {
		if i > 0 && p == sorted[i-1] {
			continue // duplicate path: merging twice would double-count
		}
		if m, ok := s.byPath[p]; ok && s.members[m].MergeSketchInto(&agg, p, metric) {
			found = true
		}
	}
	return agg, found
}
