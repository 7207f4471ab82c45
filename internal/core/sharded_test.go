package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sketch"
)

// fakeMember is a Monitor that records submissions and serves canned
// measurements from its database.
type fakeMember struct {
	DirectorBase
	submitted []Request
}

func newFakeMember(k *sim.Kernel) *fakeMember {
	return &fakeMember{DirectorBase: NewDirectorBase(k)}
}

func (f *fakeMember) Submit(req Request) {
	f.submitted = append(f.submitted, req)
	f.DirectorBase.Submit(req)
}

func shardedFixture(t *testing.T) (*ShardedMonitor, []*fakeMember, []Path, func()) {
	t.Helper()
	k := sim.NewKernel()
	members := []*fakeMember{newFakeMember(k), newFakeMember(k)}
	pA := NewPath(ProcessRef{Host: "g1-s1"}, ProcessRef{Host: "g2-c1"})
	pB := NewPath(ProcessRef{Host: "g2-s1"}, ProcessRef{Host: "g1-c1"})
	owner := func(p Path) int {
		if p.Hops[0].Host == "g1-s1" {
			return 0
		}
		return 1
	}
	sm := NewShardedMonitor(owner, members[0], members[1])
	return sm, members, []Path{pA, pB}, k.Close
}

func TestShardedMonitorSplitsByOwner(t *testing.T) {
	sm, members, paths, done := shardedFixture(t)
	defer done()
	sm.Submit(Request{Paths: paths, Metrics: []metrics.Metric{metrics.Reachability}})
	for i, m := range members {
		if len(m.submitted) != 1 || len(m.submitted[0].Paths) != 1 {
			t.Fatalf("member %d got %v", i, m.submitted)
		}
		if m.submitted[0].Paths[0].ID != paths[i].ID {
			t.Fatalf("member %d owns %s, want %s", i, m.submitted[0].Paths[0].ID, paths[i].ID)
		}
	}
	if i, ok := sm.Owner(paths[1].ID); !ok || i != 1 {
		t.Fatalf("Owner(%s) = %d,%v", paths[1].ID, i, ok)
	}
}

// TestShardedMonitorSubmitReplacesRouting: a request replaces the previous
// one, so a path it drops has no owner, its former member gets an empty
// request, and AggregateSketch no longer merges the member's old sketch
// for it.
func TestShardedMonitorSubmitReplacesRouting(t *testing.T) {
	sm, members, paths, done := shardedFixture(t)
	defer done()
	members[1].DB.EnableSketches(sketch.Thresholds{})
	mets := []metrics.Metric{metrics.Throughput}
	sm.Submit(Request{Paths: paths, Metrics: mets})
	members[1].Publish(Measurement{Path: paths[1].ID, Metric: metrics.Throughput, Value: 42, TakenAt: time.Second})
	if _, ok := sm.AggregateSketch(metrics.Throughput, []PathID{paths[1].ID}); !ok {
		t.Fatal("owned path's sketch not merged")
	}
	sm.Submit(Request{Paths: paths[:1], Metrics: mets})
	if i, ok := sm.Owner(paths[1].ID); ok {
		t.Fatalf("dropped path still owned by member %d", i)
	}
	if last := members[1].submitted[len(members[1].submitted)-1]; len(last.Paths) != 0 {
		t.Fatalf("member 1 still asked for %v", last.Paths)
	}
	if agg, ok := sm.AggregateSketch(metrics.Throughput, []PathID{paths[1].ID}); ok {
		t.Fatalf("dropped path still merged: %d samples", agg.Count())
	}
	if i, ok := sm.Owner(paths[0].ID); !ok || i != 0 {
		t.Fatalf("kept path: Owner = %d,%v, want 0,true", i, ok)
	}
	if last := members[0].submitted[len(members[0].submitted)-1]; len(last.Paths) != 1 || last.Paths[0].ID != paths[0].ID {
		t.Fatalf("member 0 asked for %v, want only %s", last.Paths, paths[0].ID)
	}
}
