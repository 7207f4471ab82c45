package core

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
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

func TestShardedMonitorQueryRoutesToOwner(t *testing.T) {
	sm, members, paths, done := shardedFixture(t)
	defer done()
	sm.Submit(Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	members[1].Publish(Measurement{Path: paths[1].ID, Metric: metrics.Throughput, Value: 42, TakenAt: time.Second})
	got, ok := sm.Query(paths[1].ID, metrics.Throughput)
	if !ok || got.Value != 42 {
		t.Fatalf("Query = %v, %v", got, ok)
	}
	if _, ok := sm.Query(paths[0].ID, metrics.Throughput); ok {
		t.Fatal("Query for unmeasured owned path should miss")
	}
	if got, ok := sm.LastKnown(paths[1].ID, metrics.Throughput); !ok || got.Value != 42 {
		t.Fatalf("LastKnown = %v, %v", got, ok)
	}
}

// TestShardedMonitorSubmitReplacesRouting: a request replaces the previous
// one, so a path it drops has no owner and the member's old sample for it is
// no longer served.
func TestShardedMonitorSubmitReplacesRouting(t *testing.T) {
	sm, members, paths, done := shardedFixture(t)
	defer done()
	mets := []metrics.Metric{metrics.Throughput}
	sm.Submit(Request{Paths: paths, Metrics: mets})
	members[1].Publish(Measurement{Path: paths[1].ID, Metric: metrics.Throughput, Value: 42, TakenAt: time.Second})
	sm.Submit(Request{Paths: paths[:1], Metrics: mets})
	if i, ok := sm.Owner(paths[1].ID); ok {
		t.Fatalf("dropped path still owned by member %d", i)
	}
	if got, ok := sm.Query(paths[1].ID, metrics.Throughput); ok {
		t.Fatalf("dropped path still served: %v", got)
	}
	if got, ok := sm.LastKnown(paths[1].ID, metrics.Throughput); ok {
		t.Fatalf("dropped path still has a last-known value: %v", got)
	}
	if i, ok := sm.Owner(paths[0].ID); !ok || i != 0 {
		t.Fatalf("kept path: Owner = %d,%v, want 0,true", i, ok)
	}
}

func TestShardedMonitorQueryFresh(t *testing.T) {
	sm, members, paths, done := shardedFixture(t)
	defer done()
	sm.Submit(Request{Paths: paths, Metrics: []metrics.Metric{metrics.Throughput}})
	members[0].Publish(Measurement{Path: paths[0].ID, Metric: metrics.Throughput, Value: 7, TakenAt: time.Second})
	if _, ok := sm.QueryFresh(paths[0].ID, metrics.Throughput, 2*time.Second, 5*time.Second); !ok {
		t.Fatal("fresh sample reported stale")
	}
	if _, ok := sm.QueryFresh(paths[0].ID, metrics.Throughput, 10*time.Second, 5*time.Second); ok {
		t.Fatal("stale sample reported fresh")
	}
}

func TestShardedMonitorRejectsAsync(t *testing.T) {
	sm, _, paths, done := shardedFixture(t)
	defer done()
	defer func() {
		if recover() == nil {
			t.Fatal("ReportAsync submit must panic")
		}
	}()
	sm.Submit(Request{Paths: paths, Mode: ReportAsync})
}

func TestShardedMonitorStopFansOut(t *testing.T) {
	sm, members, _, done := shardedFixture(t)
	defer done()
	sm.Stop()
	for i, m := range members {
		if !m.Stopped() {
			t.Fatalf("member %d not stopped", i)
		}
	}
	if sm.Reports() != nil {
		t.Fatal("Reports must be nil for the pull-only meta-director")
	}
}
