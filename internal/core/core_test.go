package core

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func ref(host, proc string) ProcessRef {
	return ProcessRef{Host: netsim.Addr(host), Process: proc}
}

func TestNewPathIDAndSegments(t *testing.T) {
	p := NewPath(ref("s1", "rtds"), ref("r1", "router"), ref("c1", "client"))
	if p.ID != "s1/rtds->r1/router->c1/client" {
		t.Fatalf("ID = %q", p.ID)
	}
	if len(p.Hops) != 3 || p.Hops[1] != ref("r1", "router") {
		t.Fatalf("hops = %v", p.Hops)
	}
	if !p.Valid() {
		t.Fatal("valid path reported invalid")
	}
	if NewPath(ref("s1", "x")).Valid() {
		t.Fatal("single-hop path reported valid")
	}
}

func TestCrossProductPathsMatchesFigure4(t *testing.T) {
	// §5.1.1.1: C=9 clients, S=3 servers -> 27 paths.
	servers := make([]ProcessRef, 3)
	clients := make([]ProcessRef, 9)
	for i := range servers {
		servers[i] = ref("s"+string(rune('1'+i)), "rtds")
	}
	for i := range clients {
		clients[i] = ref("c"+string(rune('1'+i)), "client")
	}
	paths := CrossProductPaths(servers, clients)
	if len(paths) != 27 {
		t.Fatalf("paths = %d, want 27", len(paths))
	}
	seen := make(map[PathID]bool)
	for _, p := range paths {
		if seen[p.ID] {
			t.Fatalf("duplicate path %s", p.ID)
		}
		seen[p.ID] = true
		if len(p.Hops) != 2 {
			t.Fatalf("path %s has %d hops", p.ID, len(p.Hops))
		}
	}
}

// TestNewPathIDMatchesJoinOracle: a path ID written into one buffer is
// byte-equal to the hops' String forms joined by "->", hops without a
// process and empty hop lists included; so is every ID CrossProductPaths
// builds, and each of its paths holds exactly its own two hops.
func TestNewPathIDMatchesJoinOracle(t *testing.T) {
	oracle := func(hops []ProcessRef) PathID {
		parts := make([]string, len(hops))
		for i, h := range hops {
			parts[i] = h.String()
		}
		return PathID(strings.Join(parts, "->"))
	}
	for _, hops := range [][]ProcessRef{
		nil,
		{ref("s1", "")},
		{ref("s1", "rtds")},
		{ref("s1", ""), ref("c1", "")},
		{ref("s1", "rtds"), ref("r1", ""), ref("c1", "client")},
		{ref("", "x"), ref("", "")},
		{ref("h1-2", "a/b"), ref("h1-3->x", "-")},
	} {
		if got, want := NewPath(hops...).ID, oracle(hops); got != want {
			t.Fatalf("NewPath(%v).ID = %q, want %q", hops, got, want)
		}
	}
	servers := []ProcessRef{ref("s1", "rtds"), ref("s2", "")}
	clients := []ProcessRef{ref("c1", ""), ref("c2", "client"), ref("c3", "client")}
	paths := CrossProductPaths(servers, clients)
	for i, p := range paths {
		s, c := servers[i/len(clients)], clients[i%len(clients)]
		if want := oracle([]ProcessRef{s, c}); p.ID != want || len(p.Hops) != 2 || cap(p.Hops) != 2 || p.Hops[0] != s || p.Hops[1] != c {
			t.Fatalf("path %d: %q over %v (cap %d), want %q over [%v %v]", i, p.ID, p.Hops, cap(p.Hops), want, s, c)
		}
	}
}

func TestDatabaseCurrentVsLastKnown(t *testing.T) {
	db := NewDatabase()
	p := PathID("a->b")
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: 1e6, TakenAt: time.Second})
	db.Record(Measurement{Path: p, Metric: metrics.Throughput, Err: "unreachable", TakenAt: 2 * time.Second})

	cur, ok := db.Current(p, metrics.Throughput)
	if !ok || cur.OK() {
		t.Fatalf("current should be the failed sample: %+v", cur)
	}
	last, ok := db.LastKnown(p, metrics.Throughput)
	if !ok || !last.OK() || last.Value != 1e6 {
		t.Fatalf("last known = %+v", last)
	}
}

// historyValues collects what EachHistory visits, oldest first.
func historyValues(db *Database, p PathID, metric metrics.Metric, n int) []float64 {
	var vals []float64
	db.EachHistory(p, metric, n, func(m Measurement) bool {
		vals = append(vals, m.Value)
		return true
	})
	return vals
}

func TestDatabaseHistoryBounded(t *testing.T) {
	db := NewDatabase()
	db.HistoryDepth = 4
	p := PathID("a->b")
	for i := 0; i < 10; i++ {
		db.Record(Measurement{Path: p, Metric: metrics.OneWayLatency, Value: float64(i)})
	}
	h := historyValues(db, p, metrics.OneWayLatency, 0)
	if len(h) != 4 {
		t.Fatalf("history length = %d, want 4", len(h))
	}
	if h[0] != 6 || h[3] != 9 {
		t.Fatalf("history window = %v..%v, want 6..9", h[0], h[3])
	}
	if got := historyValues(db, p, metrics.OneWayLatency, 2); len(got) != 2 || got[1] != 9 {
		t.Fatalf("EachHistory(2) = %v", got)
	}
}

func TestDatabaseHistoryContract(t *testing.T) {
	// EachHistory visits nothing for an unknown series, everything retained
	// for n <= 0, and the newest n when n is in (0, count).
	cases := []struct {
		name    string
		depth   int
		records int
		n       int
		want    []float64 // expected Values, oldest first
	}{
		{"unknown series", 4, 0, 0, nil},
		{"n=0 returns all retained", 4, 3, 0, []float64{0, 1, 2}},
		{"negative n returns all retained", 4, 3, -1, []float64{0, 1, 2}},
		{"n below count trims to newest", 4, 3, 2, []float64{1, 2}},
		{"n equal to count", 4, 3, 3, []float64{0, 1, 2}},
		{"n above count returns count", 4, 3, 10, []float64{0, 1, 2}},
		{"exactly at depth", 4, 4, 0, []float64{0, 1, 2, 3}},
		{"one past depth evicts oldest", 4, 5, 0, []float64{1, 2, 3, 4}},
		{"ring wrapped twice", 4, 11, 0, []float64{7, 8, 9, 10}},
		{"wrapped ring trimmed", 4, 11, 2, []float64{9, 10}},
		{"depth one keeps newest only", 1, 6, 0, []float64{5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := NewDatabase()
			db.HistoryDepth = tc.depth
			p := PathID("a->b")
			for i := 0; i < tc.records; i++ {
				db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: float64(i)})
			}
			got := historyValues(db, p, metrics.Throughput, tc.n)
			if len(got) != len(tc.want) {
				t.Fatalf("visited %v, want %v", got, tc.want)
			}
			for i, v := range tc.want {
				if got[i] != v {
					t.Fatalf("visit %d = %g, want %g (%v)", i, got[i], v, got)
				}
			}
		})
	}
}

func TestDatabaseEachHistoryMatchesHistory(t *testing.T) {
	db := NewDatabase()
	db.HistoryDepth = 4
	p := PathID("a->b")
	for i := 0; i < 9; i++ {
		db.Record(Measurement{Path: p, Metric: metrics.Throughput, Value: float64(i)})
	}
	// The ring retains 5..8; a walk of n is its newest n, in order.
	retained := []float64{5, 6, 7, 8}
	for _, n := range []int{0, 1, 3, 4, 99} {
		want := retained
		if n > 0 && n < len(retained) {
			want = retained[len(retained)-n:]
		}
		walked := historyValues(db, p, metrics.Throughput, n)
		if len(walked) != len(want) {
			t.Fatalf("n=%d: EachHistory visited %v, want %v", n, walked, want)
		}
		for i := range want {
			if walked[i] != want[i] {
				t.Fatalf("n=%d: walk diverged at %d: %v vs %v", n, i, walked, want)
			}
		}
	}
	// Early stop.
	visits := 0
	db.EachHistory(p, metrics.Throughput, 0, func(Measurement) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("EachHistory ignored early stop: %d visits", visits)
	}
	// Unknown series visits nothing.
	db.EachHistory("nope", metrics.Throughput, 0, func(Measurement) bool {
		t.Fatal("visited sample of unknown series")
		return false
	})
	if got := db.series[dbKey{p, metrics.Throughput}].count(); got != 4 {
		t.Fatalf("retained count = %d, want 4", got)
	}
}

func TestDatabaseSenescence(t *testing.T) {
	db := NewDatabase()
	p := PathID("a->b")
	db.Record(Measurement{Path: p, Metric: metrics.Reachability, Value: 1, TakenAt: 3 * time.Second})
	age, ok := db.Senescence(10*time.Second, p, metrics.Reachability)
	if !ok || age != 7*time.Second {
		t.Fatalf("senescence = %v, %v", age, ok)
	}
	if _, ok := db.Senescence(0, "nope", metrics.Reachability); ok {
		t.Fatal("senescence of unknown series reported ok")
	}
}

func TestPropertyDatabaseLastKnownAlwaysOK(t *testing.T) {
	// Property: whatever mix of failed/good samples arrives, LastKnown is
	// the most recent OK sample and Current is the most recent of all.
	f := func(oks []bool) bool {
		db := NewDatabase()
		p := PathID("x->y")
		lastOKIdx := -1
		for i, ok := range oks {
			m := Measurement{Path: p, Metric: metrics.Throughput, Value: float64(i), TakenAt: time.Duration(i)}
			if !ok {
				m.Err = "fail"
			} else {
				lastOKIdx = i
			}
			db.Record(m)
		}
		if len(oks) == 0 {
			_, found := db.Current(p, metrics.Throughput)
			return !found
		}
		cur, _ := db.Current(p, metrics.Throughput)
		if cur.TakenAt != time.Duration(len(oks)-1) {
			return false
		}
		last, found := db.LastKnown(p, metrics.Throughput)
		if lastOKIdx == -1 {
			return !found
		}
		return found && last.OK() && last.TakenAt == time.Duration(lastOKIdx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectorBasePublishHook: Publish records the measurement and then
// calls OnPublish once, so a subscriber that queries the database from the
// hook already sees the sample; with no hook Publish only records.
func TestDirectorBasePublishHook(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := NewDirectorBase(k)
	p := NewPath(ref("a", "x"), ref("b", "y"))
	d.Submit(Request{Paths: []Path{p}, Metrics: []metrics.Metric{metrics.Throughput}})

	d.Publish(Measurement{Path: p.ID, Metric: metrics.Throughput, Value: 1})
	if m, ok := d.Query(p.ID, metrics.Throughput); !ok || m.Value != 1 {
		t.Fatalf("query = %+v, %v", m, ok)
	}

	var seen []float64
	d.OnPublish = func(m Measurement) {
		cur, ok := d.Query(m.Path, m.Metric)
		if !ok || cur != m {
			t.Errorf("hook saw %+v before the database did (current %+v, %v)", m, cur, ok)
		}
		seen = append(seen, m.Value)
	}
	d.Publish(Measurement{Path: p.ID, Metric: metrics.Throughput, Value: 2})
	d.Publish(Measurement{Path: p.ID, Metric: metrics.Throughput, Value: 3})
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 3 {
		t.Fatalf("hook saw %v, want [2 3]", seen)
	}
	if d.DB.Records != 3 {
		t.Fatalf("records = %d, want 3", d.DB.Records)
	}
}

func TestRequestPairs(t *testing.T) {
	req := Request{
		Paths:   CrossProductPaths(make([]ProcessRef, 3), make([]ProcessRef, 9)),
		Metrics: []metrics.Metric{metrics.Throughput, metrics.OneWayLatency, metrics.Reachability},
	}
	// Figure 4(b): C·S paths, each wanted for every metric.
	if pairs := len(req.Paths) * len(req.Metrics); pairs != 81 {
		t.Fatalf("pairs = %d, want 81", pairs)
	}
}

func TestMeasurementStringAndReached(t *testing.T) {
	m := Measurement{Path: "a->b", Metric: metrics.Reachability, Value: 1}
	if !m.Reached() {
		t.Fatal("Reached() = false for value 1")
	}
	bad := Measurement{Path: "a->b", Metric: metrics.Reachability, Err: "x"}
	if bad.Reached() {
		t.Fatal("failed measurement reported reached")
	}
	if bad.String() == "" || m.String() == "" {
		t.Fatal("empty String()")
	}
}
