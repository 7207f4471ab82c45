package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The limits the benchmark contract puts on BENCHMARK.json.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogueWithinContract(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	haveSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			haveSetup = m.unit == "s" && m.better == "lower"
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range perLayer {
		check("per-layer", m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better = %q", m.name, m.better)
		}
		if m.doc == "" || m.moves == "" || m.src == "" {
			t.Errorf("%s: catalogue row lacks a definition, a source or an interaction note", m.name)
		}
	}
	for _, w := range workloads {
		check("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// BENCHMARK.json is generated from the catalogue; a hand edit to either
// without the other fails here.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := contractJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: bash bench/run.sh -print-contract > BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(got))
	}
}

// Smoke-size versions of all six workloads: the harness must emit exactly
// the catalogue's names in each mode, agree with itself across iterations,
// and keep every end-to-end metric non-zero.
func TestSmokeWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 1, smoke: true, iterations: 2, out: t.TempDir()}
			rep, err := timedRun(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
			}
			attempted := rep.Attempted
			sameNames(t, "end-to-end", rep.Metrics, endToEnd)
			for _, d := range endToEnd {
				if v := rep.Metrics[d.name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", d.name, v)
				}
			}
			rep, err = tracedRun(w, o)
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, "per-layer", rep.Metrics, perLayer)
			if rep.Attempted != attempted || rep.Failed != 0 {
				t.Errorf("traced run: failed=%d attempted=%d, the timed run attempted %d", rep.Failed, rep.Attempted, attempted)
			}
			// db-ingest's generator fails 1 % of the measurements: an injected
			// fault, counted by op_fail_frac and not as a failed operation.
			if frac := rep.Metrics["op_fail_frac"].Value; w.name == "db-ingest" && (frac < 0.005 || frac > 0.02) {
				t.Errorf("op_fail_frac = %v, the inputs fail 1 %%", frac)
			}
			// A layer is probed exactly where it did work.
			for _, p := range [][2]string{{"sim.schedule_ns", "sim.events"}, {"sim.shard_barrier_ns", "sim.shard_windows"},
				{"netsim.segment_delivery_ns", "netsim.frames"}, {"snmp.agent_handle_ns", "snmp.requests"},
				{"core.record_ns_1024", "core.records"}, {"director.offer_trap_ns", "director.traps_in"}} {
				if probed, used := rep.Metrics[p[0]].Value > 0, rep.Metrics[p[1]].Value > 0; probed != used {
					t.Errorf("probe %s = %v with %s = %v", p[0], rep.Metrics[p[0]].Value, p[1], rep.Metrics[p[1]].Value)
				}
			}
			if sim := w.name != "db-ingest" && w.name != "db-query-mix"; sim != (rep.Metrics["sim.events"].Value > 0) {
				t.Errorf("sim.events = %v on %s", rep.Metrics["sim.events"].Value, w.name)
			}
			if sharded := w.name == "wan-federation-2shard"; sharded != (rep.Metrics["sim.shard_windows"].Value > 0) {
				t.Errorf("sim.shard_windows = %v on %s", rep.Metrics["sim.shard_windows"].Value, w.name)
			}
			if _, err := os.Stat(o.out + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("no trace written: %v", err)
			}
		})
	}
}

func sameNames(t *testing.T, kind string, got map[string]value, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, catalogue lists %d", kind, len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.name]
		if !ok {
			t.Errorf("%s: %s not emitted", kind, d.name)
		} else if v.Unit != d.unit {
			t.Errorf("%s: %s emitted in %q, catalogue says %q", kind, d.name, v.Unit, d.unit)
		}
	}
}

// The seeded generators must give the same inputs for the same seed and
// different ones for another.
func TestInputsFollowSeed(t *testing.T) {
	a, b, c := genDBInputs(1, 1000), genDBInputs(1, 1000), genDBInputs(2, 1000)
	same := func(x, y []uint16) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a.series, b.series) {
		t.Error("seed 1 gave two different op sequences")
	}
	if same(a.series, c.series) {
		t.Error("seeds 1 and 2 gave the same op sequence")
	}
}

// A simulator speed-up that changes any E1-E16/A1-A3 cell changes this
// digest; update tables.sha256 only together with a claimed behaviour
// change.
func TestTablesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the whole quick experiment suite")
	}
	got, _ := tablesDigest()
	if want := strings.TrimSpace(tablesGolden); got != want {
		t.Errorf("experiment tables digest %s, tables.sha256 says %s", got, want)
	}
}

func TestSelfTime(t *testing.T) {
	// iteration [0,100] > slice [10,90] > query [20,30], query [40,60];
	// a second slice [90,100] with no children.
	spans := []span{
		{Name: "bench.iteration", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "sim.slice", StartNS: 10, EndNS: 90, Parent: 0},
		{Name: "manager.query", StartNS: 20, EndNS: 30, Parent: 1},
		{Name: "manager.query", StartNS: 40, EndNS: 60, Parent: 1},
		{Name: "sim.slice", StartNS: 90, EndNS: 100, Parent: 0},
	}
	self := selfTimes(spans)
	want := map[string]int64{"bench.iteration": 10, "sim.slice": 50 + 10, "manager.query": 30}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	var total int64
	for _, v := range self {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, the root span lasts 100", total)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	c := tr.begin("c")
	tr.end(c)
	tr.end(a)
	d := tr.begin("d")
	tr.end(d)
	parents := []int{-1, a, a, -1}
	for i, p := range parents {
		if tr.spans[i].Parent != p {
			t.Errorf("span %s has parent %d, want %d", tr.spans[i].Name, tr.spans[i].Parent, p)
		}
		if tr.spans[i].EndNS < tr.spans[i].StartNS {
			t.Errorf("span %s ends before it starts", tr.spans[i].Name)
		}
	}
	var none *tracer // the untraced run
	none.end(none.begin("x"))
	none.count("y")
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{7, 0}, {99, 0}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {traceSlices, 0.99}, {10000, 0.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

func TestCompareRuns(t *testing.T) {
	mk := func(wall, detect float64) *savedRun {
		r := &savedRun{Workloads: make(map[string]map[string]value)}
		for _, w := range workloads {
			m := make(map[string]value)
			for _, d := range endToEnd {
				m[d.name] = value{Value: 1}
			}
			for _, d := range perLayer {
				m[d.name] = value{Value: 1}
			}
			m["wall_s"] = value{Value: wall}
			m["detect_latency_ms"] = value{Value: detect}
			r.Workloads[w.name] = m
		}
		return r
	}
	if d := compareRuns(mk(1.00, 56), mk(1.15, 56)); len(d) != 0 {
		t.Errorf("15%% apart on a 25%% bound: %v", d)
	}
	if d := compareRuns(mk(1.00, 56), mk(1.30, 56)); len(d) != len(workloads) {
		t.Errorf("30%% apart on a 25%% bound: %d differences, want one per workload", len(d))
	}
	if d := compareRuns(mk(1.00, 56), mk(1.00, 57)); len(d) != len(workloads) {
		t.Errorf("an exact metric moved: %d differences, want one per workload", len(d))
	}
}
