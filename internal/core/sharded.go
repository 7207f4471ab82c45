package core

import (
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// ShardedMonitor federates per-region monitors into one resource-manager
// endpoint. In a sharded simulation each shard (or each region) runs its
// own director close to its sensors — the fabric tier — while the resource
// manager talks to this meta-director, which fans a request's path list out
// to the member that owns each path and merges their databases on query.
//
// Members' directors run on their own shards; the fan-out itself happens at
// wiring time (Submit before the run) and queries read member databases
// after the run or between windows, so ShardedMonitor needs no locking of
// its own. Asynchronous report streaming is not supported: each member's
// stream lives on its shard's kernel, and merging them mid-run would create
// exactly the cross-shard mutation the ownership rules forbid. Submit
// panics on ReportAsync rather than silently dropping the mode.
type ShardedMonitor struct {
	members []Monitor
	owner   func(Path) int
	byPath  map[PathID]int
}

var _ Monitor = (*ShardedMonitor)(nil)

// NewShardedMonitor builds the meta-director. owner maps a path to the
// index of the member monitor that must collect it (typically: the shard or
// region of the path's origin host).
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

// member is the one routing rule: every read goes to the member that owns
// the path under the current request, and a path the request does not name
// has no member (nil).
func (s *ShardedMonitor) member(path PathID) Monitor {
	if i, ok := s.byPath[path]; ok {
		return s.members[i]
	}
	return nil
}

// Submit splits the request's path list by owner and submits one
// sub-request per member (Monitor interface). Members with no owned paths
// receive an empty request, clearing any previous one. The routing map is
// rebuilt from this request alone: like any Monitor, a new request replaces
// the old, so a path it drops stops being served.
func (s *ShardedMonitor) Submit(req Request) {
	if req.Mode == ReportAsync {
		panic("core: ShardedMonitor does not support ReportAsync")
	}
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
		m.Submit(Request{Paths: split[i], Metrics: req.Metrics, Mode: ReportOnDemand})
	}
}

// Query implements current-value reporting by asking the owning member
// (Monitor interface).
func (s *ShardedMonitor) Query(path PathID, metric metrics.Metric) (Measurement, bool) {
	if m := s.member(path); m != nil {
		return m.Query(path, metric)
	}
	return Measurement{}, false
}

// LastKnown implements last-known-value reporting by asking the owning
// member (Monitor interface).
func (s *ShardedMonitor) LastKnown(path PathID, metric metrics.Metric) (Measurement, bool) {
	if m := s.member(path); m != nil {
		return m.LastKnown(path, metric)
	}
	return Measurement{}, false
}

// QueryFresh implements senescence-aware reads (FreshQuerier) by asking the
// owning member.
func (s *ShardedMonitor) QueryFresh(path PathID, metric metrics.Metric, now, ttl time.Duration) (Measurement, bool) {
	if m := s.member(path); m != nil {
		return m.QueryFresh(path, metric, now, ttl)
	}
	return Measurement{}, false
}

// Quantile implements QuantileQuerier by asking the owning member's sketch.
func (s *ShardedMonitor) Quantile(path PathID, metric metrics.Metric, p float64) (float64, bool) {
	if m := s.member(path); m != nil {
		return m.Quantile(path, metric, p)
	}
	return 0, false
}

// QuantileSummary implements QuantileQuerier by asking the owning member.
func (s *ShardedMonitor) QuantileSummary(path PathID, metric metrics.Metric) (sketch.Summary, bool) {
	if m := s.member(path); m != nil {
		return m.QuantileSummary(path, metric)
	}
	return sketch.Summary{}, false
}

// MergeSketchInto implements SketchMerger: the owning member's sketch for
// the series is folded into dst.
func (s *ShardedMonitor) MergeSketchInto(dst *sketch.Sketch, path PathID, metric metrics.Metric) bool {
	if m := s.member(path); m != nil {
		return m.MergeSketchInto(dst, path, metric)
	}
	return false
}

// AggregateSketch merges the per-path sketches for metric across the
// federation into one summary sketch — the roll-up a hierarchical
// director exports upward. Paths are merged in globally sorted order, NOT
// member order: each path's sketch is identical no matter which shard
// collected it (sampling is shard-transparent), so fixing the merge
// sequence by path makes the aggregate bit-identical at any shard count.
// ok is false when no path had a live sketch.
func (s *ShardedMonitor) AggregateSketch(metric metrics.Metric, paths []PathID) (sketch.Sketch, bool) {
	sorted := append([]PathID(nil), paths...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var agg sketch.Sketch
	found := false
	for i, p := range sorted {
		if i > 0 && p == sorted[i-1] {
			continue // duplicate path: merging twice would double-count
		}
		if s.MergeSketchInto(&agg, p, metric) {
			found = true
		}
	}
	return agg, found
}

// Reports returns nil: the federated monitor is pull-only (Monitor
// interface; see the type comment for why).
func (s *ShardedMonitor) Reports() *sim.Queue[Measurement] { return nil }

// Stop ceases collection on every member (Monitor interface).
func (s *ShardedMonitor) Stop() {
	for _, m := range s.members {
		m.Stop()
	}
}
