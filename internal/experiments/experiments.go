// Package experiments regenerates every quantitative claim of the paper's
// evaluation as a table: the E1–E16 + A1–A3 index in DESIGN.md maps each
// function here to the section of the paper it reproduces. Each experiment
// accepts a quick flag (shorter virtual runs for benchmarks) and returns a
// report.Table; cmd/experiments prints them all.
package experiments

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/sim"
)

// shardCount selects how experiment kernels are built: 0 (default) is the
// plain kernel; n >= 1 makes every experiment run as shard 0 of an n-shard
// group. The experiments' workloads are single-region, so the peers stay
// idle, but for n > 1 the group still cuts the run into shardLookahead
// windows, each a barrier with shard 0's worker. The mode is a test that
// window slicing is invisible: the tables must come out byte-identical,
// which TestSingleShardBitIdentical and TestMultiShardDeterminism assert.
// DESIGN.md §11 has what it costs in wall-clock time.
var shardCount int

// shardLookahead is the synthetic lookahead of transparency-mode groups.
// Experiment workloads never cross shards, so any positive bound works.
const shardLookahead = time.Millisecond

// SetShards selects the kernel construction mode for subsequent runs: 0
// restores the plain kernel, n >= 1 runs experiments on n-shard groups.
// It must not be called concurrently with RunAll.
func SetShards(n int) { shardCount = n }

// newKernel builds the kernel an experiment runs on, honoring SetShards.
// Closing the returned kernel closes its whole group.
func newKernel() *sim.Kernel {
	if shardCount <= 0 {
		return sim.NewKernel()
	}
	return sim.NewShardGroup(shardCount, shardLookahead).Shard(0)
}

// Experiment describes one registered experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(quick bool) *report.Table
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "High-fidelity monitor overhead: parallel vs sequencer", E1},
		{"E2", "Sequencer senescence: sample spacing C·S·T", E2},
		{"E3", "Burst length vs measurement accuracy under transients", E3},
		{"E4", "Clock-offset exchange vs NTP: intrusiveness and error", E4},
		{"E5", "RMON probe and SNMP under network load", E5},
		{"E6", "Management station trap flood overrun", E6},
		{"E7", "Counter-delta throughput fidelity vs NTTCP", E7},
		{"E8", "Reachability by instrumentation point", E8},
		{"E9", "Standard MIB coverage of TCP connection state", E9},
		{"E10", "Scalability: overhead and senescence vs system size", E10},
		{"E11", "Background liveness polling: latency vs overhead", E11},
		{"E12", "Resilience layer under chaos: latency, staleness, waste", E12},
		{"E13", "Self-telemetry: zero-perturbation monitor-of-the-monitor", E13},
		{"E14", "Sharded kernel scaling: fixed workload vs shard count", E14},
		{"E15", "Quantile sketch accuracy vs memory vs full history", E15},
		{"E16", "Hierarchical director tree vs flat station under trap storm", E16},
		{"A1", "Ablation: trap vs inform delivery under load", A1},
		{"A2", "Ablation: test sequencer concurrency frontier", A2},
		{"A3", "Ablation: GetNext walk vs GetBulk retrieval", A3},
	}
}

// Result pairs an experiment with its generated table and the wall-clock
// time the run took.
type Result struct {
	Experiment Experiment
	Table      *report.Table
	Elapsed    time.Duration
}

// RunAll executes the given experiments across at most workers goroutines
// (workers < 1 means serial) and returns the results in input order
// regardless of completion order. Every experiment owns an independent
// kernel seeded deterministically, so the tables are byte-identical to a
// serial run at any worker count.
func RunAll(exps []Experiment, quick bool, workers int) []Result {
	results := make([]Result, len(exps))
	if workers < 1 {
		workers = 1
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// Elapsed is wall-clock harness timing for the operator's
				// benefit; it never feeds back into simulated state.
				start := time.Now() //lint:allow wallclock harness timing only
				table := exps[i].Run(quick)
				elapsed := time.Since(start) //lint:allow wallclock harness timing only
				results[i] = Result{Experiment: exps[i], Table: table, Elapsed: elapsed}
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// pick returns a when quick, else b.
func pick(quick bool, a, b time.Duration) time.Duration {
	if quick {
		return a
	}
	return b
}

// pickN returns a when quick, else b.
func pickN(quick bool, a, b int) int {
	if quick {
		return a
	}
	return b
}

// historySpacing returns the mean inter-sample spacing of a series' retained
// history — the senescence proxy of E2/A2 — scanning in place without
// copying the series.
func historySpacing(db *core.Database, path core.PathID, metric metrics.Metric) time.Duration {
	var first, last time.Duration
	n := 0
	db.EachHistory(path, metric, 0, func(m core.Measurement) bool {
		if n == 0 {
			first = m.TakenAt
		}
		last = m.TakenAt
		n++
		return true
	})
	if n < 2 {
		return 0
	}
	return (last - first) / time.Duration(n-1)
}

// firstUnreachable returns when db first recorded a host failure: the
// TakenAt of the earliest reachability-0 sample taken after `after` on any
// of paths that ends at host, or -1 when there is none.
func firstUnreachable(db *core.Database, paths []core.Path, host netsim.Addr, after time.Duration) time.Duration {
	detected := time.Duration(-1)
	for _, p := range paths {
		if p.Hops[len(p.Hops)-1].Host != host {
			continue
		}
		db.EachHistory(p.ID, metrics.Reachability, 0, func(m core.Measurement) bool {
			if m.Reached() || m.TakenAt <= after {
				return true
			}
			if detected < 0 || m.TakenAt < detected {
				detected = m.TakenAt
			}
			return false
		})
	}
	return detected
}
