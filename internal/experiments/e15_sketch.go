package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cots"
	"repro/internal/director"
	"repro/internal/hifi"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nttcp"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sketch"
	"repro/internal/topo"
)

// E15 converts §4's fidelity/senescence trade-off into a measured
// memory/accuracy curve: per-series quantile estimates from bounded
// ring-buffer history at increasing depths versus the fixed-size
// incremental sketch, each scored against exact quantiles computed from
// the full sample history of the same run. Four scenarios exercise every
// director flavor — hifi, cots, hybrid, and cots under E12-style chaos
// churn — and a federated sweep merges per-shard sketches through
// ShardedMonitor.AggregateSketch at increasing shard counts, whose rows
// must come out identical at any partitioning (merge determinism; see
// TestE15ShardInvariant).
func E15(quick bool) *report.Table {
	t := &report.Table{
		ID:    "E15",
		Title: "Quantile sketch accuracy vs memory: bounded summaries against full history",
		Paper: "fidelity vs senescence/memory (§4.4); hierarchical directors need mergeable summaries (§3)",
		Columns: []string{"scenario", "estimator", "series", "samples/series",
			"bytes/series", "q-err p50", "q-err p95", "q-err p99"},
	}
	for _, sc := range []string{"hifi", "cots", "hybrid", "chaos"} {
		for _, row := range e15ScenarioRows(quick, sc) {
			t.AddRow(row...)
		}
	}
	shardCounts := []int{1, 2}
	if !quick {
		shardCounts = []int{1, 2, 4, 8}
	}
	for _, sc := range shardCounts {
		t.AddRow(e15FedRow(quick, sc)...)
	}
	t.AddNote("q-err is max over series of min(rank distance, relative value error) vs the full-history sample: simulated latencies are atomized, so an estimate is only wrong when it is far from the exact quantile in BOTH rank and value (see e15QErr)")
	t.AddNote("hist-N keeps the newest N samples per series (its q-err is window bias, not estimation error); the sketch keeps %d floats regardless of stream length", sketch.Markers+sketch.BufCap)
	t.AddNote("federated rows merge per-member sketches in sorted path order; identical cells across shard counts = merge determinism (asserted by TestE15ShardInvariant)")
	return t
}

// e15Depth approximates unbounded history: far deeper than any series
// grows within the experiment horizon.
const e15Depth = 1 << 14

// e15Series is one series' harvested data: its full latency history, the
// same sorted (the exact reference), and its sketch digest, nil when the
// store merged none.
type e15Series struct {
	vals, sorted []float64
	sketch       *sketch.Sketch
}

// e15Collect runs one scenario and harvests every series' full history
// alongside its live sketch, in path order.
func e15Collect(quick bool, scenario string) []e15Series {
	k := newKernel()
	defer k.Close()
	h := topo.BuildHiPerD(k, 15)
	window := pick(quick, 16*time.Second, 32*time.Second)

	// Bursty on/off cross traffic on the shared Ethernet (as in E3) gives
	// the one-way latency a real queueing distribution; without it the
	// simulated latencies are near-constant and every estimator is trivially
	// exact.
	// Short on/off cycles from several modest sources mix fast, so the
	// queueing delay is a broad continuous distribution rather than two
	// separated modes (mass gaps make any quantile summary look bad at the
	// gap — that adversarial regime belongs to the sketch property tests).
	netsim.NewSink(h.Probe, 9)
	noiseSizes := []int{260, 520, 900, 1400} // mixed frames densify the delay lattice
	noise := 0
	for _, w := range h.Misc {
		if !strings.HasPrefix(string(w.Name), "w-eth-") || noise >= 4 {
			continue
		}
		(&netsim.OnOffSource{
			Src: w, Dst: h.Probe.Name, DstPort: 9, Size: noiseSizes[noise],
			PeakBps: 3_000_000, MeanOn: 150 * time.Millisecond, MeanOff: 100 * time.Millisecond,
			Seed: 150 + int64(noise),
		}).Run()
		noise++
	}

	var mon director.Member
	burst := nttcp.Config{MsgLen: 512, InterSend: time.Millisecond, Count: 2, Timeout: 200 * time.Millisecond}
	switch scenario {
	case "hifi":
		mon = hifi.New(h.Mgmt, burst, 1<<16)
	case "cots":
		mon = cots.New(h.Mgmt, "public", 40*time.Millisecond)
	case "hybrid":
		mon = hybrid.New(h.Mgmt, "public", hybrid.Config{PollInterval: 40 * time.Millisecond, NTTCP: burst})
	case "chaos":
		c := cots.New(h.Mgmt, "public", 40*time.Millisecond)
		// Tight per-attempt budget so dead agents do not stall whole sweeps
		// (the E12 lesson); the kill lands late enough that every series
		// still outgrows the sketch's exact-mode buffer.
		c.Client.Timeout = 150 * time.Millisecond
		c.Client.Retries = 0
		mon = c
		s := chaos.NewSchedule(h.Net)
		s.Kill(h.Clients[6].Name, 3*window/4)
		s.Flap("c4", window/4, window/8, window/16, 2)
	default:
		panic("unknown E15 scenario " + scenario)
	}

	db := mon.Database()
	db.HistoryDepth = e15Depth
	db.EnableSketches(sketch.Thresholds{})

	paths := h.PathList()
	mon.Submit(core.Request{Paths: paths, Metrics: []metrics.Metric{metrics.OneWayLatency, metrics.Reachability}})
	mon.Start()
	k.RunUntil(window)

	var out []e15Series
	for _, p := range paths {
		vs := okValues(db, p.ID, metrics.OneWayLatency)
		if len(vs) == 0 {
			continue
		}
		s := e15Series{vals: vs, sorted: append([]float64(nil), vs...)}
		sort.Float64s(s.sorted)
		sk := &sketch.Sketch{}
		if db.MergeSketchInto(sk, p.ID, metrics.OneWayLatency) {
			s.sketch = sk
		}
		out = append(out, s)
	}
	return out
}

// e15ScenarioRows scores each estimator against the exact full-history
// quantiles of one scenario run.
func e15ScenarioRows(quick bool, scenario string) [][]any {
	data := e15Collect(quick, scenario)
	series, totalSamples := len(data), 0
	for _, s := range data {
		totalSamples += len(s.vals)
	}
	if series == 0 {
		panic("E15 scenario " + scenario + " produced no latency series")
	}
	meanSamples := totalSamples / series
	var sk sketch.Sketch
	estimators := []struct {
		name  string
		bytes int
		est   func(s *e15Series, p float64) float64
	}{
		{"hist-64", 64 * 64, func(s *e15Series, p float64) float64 {
			return sketch.Exact(tailOf(s.vals, 64), p)
		}},
		{"hist-1024", 1024 * 64, func(s *e15Series, p float64) float64 {
			return sketch.Exact(tailOf(s.vals, 1024), p)
		}},
		{"hist-inf", meanSamples * 64, func(s *e15Series, p float64) float64 {
			return sketch.Exact(s.vals, p)
		}},
		{"sketch", sk.Bytes(), func(s *e15Series, p float64) float64 {
			return s.sketch.Quantile(p)
		}},
	}
	var rows [][]any
	for _, e := range estimators {
		var worst [3]float64
		for j := range data {
			s := &data[j]
			if s.sketch == nil {
				continue
			}
			for i, p := range []float64{0.5, 0.95, 0.99} {
				if err := e15QErr(s.sorted, e.est(s, p), p); err > worst[i] {
					worst[i] = err
				}
			}
		}
		rows = append(rows, []any{scenario, e.name, series, meanSamples, e.bytes,
			e15Pct(worst[0]), e15Pct(worst[1]), e15Pct(worst[2])})
	}
	return rows
}

// e15FedRow runs the E14 federated workload on sc shards with sketches
// enabled on every member, merges the per-path sketches through
// AggregateSketch, and scores the merged digest against exact quantiles
// of the pooled full history. Every cell except the estimator label must
// be independent of sc.
func e15FedRow(quick bool, sc int) []any {
	regions := pick(quick, 4, 8)
	g := sim.NewShardGroup(sc, topo.WANPropDelay)
	defer g.Close()
	s := topo.BuildShardedScaled(g, 15, regions, 1, 2)
	// Intra-region cross traffic on each LAN spreads the otherwise
	// near-constant WAN latencies into overlapping continuous
	// distributions; it never crosses a region (or shard) boundary, so the
	// workload stays identical at every shard count.
	for i, r := range s.Regions {
		netsim.NewSink(r.Servers[0], 9)
		(&netsim.OnOffSource{
			Src: r.Clients[len(r.Clients)-1], Dst: r.Servers[0].Name, DstPort: 9,
			Size: 600 + 250*(i%4), PeakBps: 60_000_000,
			MeanOn: 80 * time.Millisecond, MeanOff: 60 * time.Millisecond,
			Seed: 400 + int64(i),
		}).Run()
	}
	f := startFederation(s, 50*time.Millisecond, func(m *cots.Monitor) {
		m.Database().HistoryDepth = e15Depth
		m.Database().EnableSketches(sketch.Thresholds{})
	})
	paths, sm, dirs := f.paths, f.sm, f.dirs
	window := pick(quick, 8*time.Second, 16*time.Second)
	g.Shard(0).RunUntil(window)

	ids := make([]core.PathID, len(paths))
	for i, p := range paths {
		ids[i] = p.ID
	}
	agg, ok := sm.AggregateSketch(metrics.OneWayLatency, ids)
	if !ok {
		panic("E15 federated run produced no sketches")
	}
	var pooled []float64
	for _, p := range paths {
		i, ok := sm.Owner(p.ID)
		if !ok {
			continue
		}
		pooled = append(pooled, okValues(dirs[i].Database(), p.ID, metrics.OneWayLatency)...)
	}
	sort.Float64s(pooled)
	var errs [3]report.Cell
	for i, p := range []float64{0.5, 0.95, 0.99} {
		errs[i] = e15Pct(e15QErr(pooled, agg.Quantile(p), p))
	}
	return []any{"federated", fmt.Sprintf("merge@%dsh", sc), len(paths),
		int(agg.Count()) / len(paths), agg.Bytes(), errs[0], errs[1], errs[2]}
}

// tailOf returns the newest n elements of vs (all of vs when shorter).
func tailOf(vs []float64, n int) []float64 {
	if len(vs) <= n {
		return vs
	}
	return vs[len(vs)-n:]
}

// e15QErr scores a quantile estimate against the full reference sample as
// the smaller of two standard distances, so an estimate only counts as
// wrong when it is far from the truth in BOTH senses:
//
//   - rank distance: how far p lies from the estimate's rank interval
//     [F(v⁻), F(v)] in the reference sample (0 whenever v is a legitimate
//     p-quantile) — the ε-approximate-quantile measure, the right view for
//     heavy tails where value error is unbounded;
//   - relative value distance to the exact Hazen p-quantile — the right
//     view for atomized distributions, where a value a hair outside a
//     heavy tie's span is penalized by the whole tie mass in rank space.
//
// Simulated latencies are atomized (discrete queueing states), so both
// failure modes occur and neither single metric is a fair score.
func e15QErr(sorted []float64, est, p float64) float64 {
	n := float64(len(sorted))
	lo := float64(sort.SearchFloat64s(sorted, est)) / n
	hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > est })) / n
	rankErr := 0.0
	switch {
	case p < lo:
		rankErr = lo - p
	case p > hi:
		rankErr = p - hi
	}
	if rankErr == 0 {
		return 0
	}
	exact := sketch.Exact(sorted, p)
	valErr := est - exact
	if valErr < 0 {
		valErr = -valErr
	}
	if exact > 1e-12 {
		valErr /= exact
	}
	if valErr < rankErr {
		return valErr
	}
	return rankErr
}

func e15Pct(e float64) report.Cell { return report.Num(fmt.Sprintf("%.2f%%", 100*e), 100*e, "%") }
