package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/results"
)

// runScenarioStream runs one named scenario in quick mode on n shards and
// returns the raw JSONL bytes it produced. The writer's shard header is
// pinned to 0 so streams from different shard counts can be compared
// byte for byte — shard transparency demands the records never differ.
func runScenarioStream(t *testing.T, name string, shards int) []byte {
	t.Helper()
	sc, ok := ScenarioByName(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	old := shardCount
	SetShards(shards)
	defer SetShards(old)
	var buf bytes.Buffer
	w := results.NewWriter(&buf, name, 0, results.RunMeta{Tool: "scenarios_test"})
	sc.Run(true, w)
	if err := w.Err(); err != nil {
		t.Fatalf("%s on %d shards: writer error %v", name, shards, err)
	}
	if w.Records() == 0 {
		t.Fatalf("%s on %d shards wrote no records", name, shards)
	}
	return buf.Bytes()
}

// TestResultsRecordingZeroEffect asserts the seam is purely
// observational: the E12 chaos drill reports identical stats whether or
// not its database streams results (runDrill's doc comment names this test).
func TestResultsRecordingZeroEffect(t *testing.T) {
	silent := runDrill(true, e12On, nil)
	var buf bytes.Buffer
	w := results.NewWriter(&buf, "zero-effect", 0, results.RunMeta{Tool: "scenarios_test"})
	recorded := runDrill(true, e12On, w)
	if silent != recorded {
		t.Fatalf("results recording perturbed the drill:\n  nil sink: %+v\n  recording: %+v", silent, recorded)
	}
	if w.Records() == 0 {
		t.Fatal("recording run wrote no records — the seam was not actually open")
	}
}

func TestScenarioByName(t *testing.T) {
	for _, s := range Scenarios() {
		got, ok := ScenarioByName(s.Name)
		if !ok || got.Name != s.Name {
			t.Errorf("ScenarioByName(%q) = (%q, %v)", s.Name, got.Name, ok)
		}
		if s.Desc == "" {
			t.Errorf("scenario %q has no description", s.Name)
		}
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Error("unknown scenario name resolved")
	}
}

// scenarioDigests are the pinned record digests of the six quick scenario
// streams on the plain kernel.
var scenarioDigests = []struct{ name, want string }{
	{"fidelity-hifi", "21eba601ca1b3c8b8ea060c48a388796ff1b4b00bf8552f70b2e761ac5ea5dc6"},
	{"fidelity-cots", "509a50dd5ba87b862e76a9f7c958da004efbf948933e5019fc305671acca7a96"},
	{"fidelity-hybrid", "2f56409df4d4cbbc04ac2df5554c8c3d408b7fe909a2cd76b8aad5e077656ece"},
	{"resilience-on", "0bf1946626fa3d393da72bc7042430db1fc30d3ae82a6f423333ad1b7620e769"},
	{"resilience-off", "560acb09aa457366178752510fa7320177ba86077ebb39dd27c9c375c194d72f"},
	{"tree-reexport", "aa5723755c418fc4346916b9126344320e68929e99a08e4af560b9b079713e77"},
}

// TestScenarioRecordDigestPinned holds every quick scenario stream's
// record_digest fixed (the hash of json.Marshal of each record) on the
// plain kernel, so neither the encoder, the director's re-export nor a
// rewrite of the run bodies behind the scenarios can move an archived
// digest. TestScenarioEnvelopesBitIdenticalAcrossShards carries the pin
// to the sharded kernel.
func TestScenarioRecordDigestPinned(t *testing.T) {
	for _, c := range scenarioDigests {
		set, err := results.Read(bytes.NewReader(runScenarioStream(t, c.name, 0)))
		if err != nil {
			t.Fatalf("%s: stream does not read back: %v", c.name, err)
		}
		if got := set.RecordDigest(); got != c.want {
			t.Errorf("%s RecordDigest = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestScenarioEnvelopesBitIdenticalAcrossShards is the determinism
// contract of DESIGN.md §14: each of the six quick scenarios yields, at
// 1, 2, 4 and 8 shards, an envelope stream byte-identical to its
// plain-kernel stream, whose digest TestScenarioRecordDigestPinned pins.
// Any wall-clock leak, map-order dependence, or shard-visible divergence
// breaks this.
func TestScenarioEnvelopesBitIdenticalAcrossShards(t *testing.T) {
	for _, c := range scenarioDigests {
		want := runScenarioStream(t, c.name, 0)
		for _, shards := range []int{1, 2, 4, 8} {
			if got := runScenarioStream(t, c.name, shards); !bytes.Equal(got, want) {
				t.Errorf("%s stream diverged at %d shards (%d vs %d bytes)",
					c.name, shards, len(got), len(want))
			}
		}
	}
}

// TestScenarioVerdicts holds the comparable scenarios to their paper
// claims, k8s-netperf style: each row compares two quick streams with
// results.CompareSummaries, as `cmd/results compare` does, and must
// compare at least one (batch, metric) key. A new comparison is a
// Scenario plus one row here.
func TestScenarioVerdicts(t *testing.T) {
	summary := func(name string) *results.Summary {
		set, err := results.Read(bytes.NewReader(runScenarioStream(t, name, 0)))
		if err != nil {
			t.Fatalf("%s: stream does not read back: %v", name, err)
		}
		return results.Summarize(set)
	}
	for _, v := range []struct {
		a, b         string
		tolerancePct float64
		fields       []string
		match        string
		apart        bool // the pair must diverge beyond the tolerance
	}{
		// COTS counter deltas see wire rate (headers included): a small
		// structural gap (§5.2).
		{"fidelity-hifi", "fidelity-cots", 10, []string{"mean", "p50"}, "throughput", false},
		// The hybrid's own escalation bursts inflate its counter deltas
		// (observer effect on the mean), but its median stays with the
		// high-fidelity monitor (§7).
		{"fidelity-hifi", "fidelity-hybrid", 20, []string{"p50"}, "throughput", false},
		// If the two drills ever agree within 25 %, the resilience layer
		// has stopped detecting faster (§4).
		{"resilience-on", "resilience-off", 25, nil, "derived/detect-latency", true},
	} {
		c := results.CompareSummaries(summary(v.a), summary(v.b), v.tolerancePct, v.fields, v.match)
		switch {
		case c.Compared == 0:
			t.Errorf("%s vs %s: nothing matching %q was compared", v.a, v.b, v.match)
		case v.apart && len(c.Divergences) == 0:
			t.Errorf("%s vs %s agree within %g%% on %s; they must stay apart", v.a, v.b, v.tolerancePct, v.match)
		case !v.apart:
			for _, d := range c.Divergences {
				t.Errorf("%s vs %s beyond %g%%: %s", v.a, v.b, v.tolerancePct, d)
			}
		}
	}
}

// TestScenarioStreamsMatchJSONMarshal holds the results encoder to its
// oracle on the archives CI produces: every line of these quick scenario
// streams, decoded into an Envelope and re-encoded by json.Marshal, gives
// back its own bytes. Floats round-trip exactly, so a difference is the
// encoder's.
func TestScenarioStreamsMatchJSONMarshal(t *testing.T) {
	for _, name := range []string{"tree-reexport", "resilience-on", "fidelity-cots"} {
		raw := runScenarioStream(t, name, 0)
		lines := bytes.SplitAfter(raw, []byte{'\n'})
		if n := len(lines); n < 3 || len(lines[n-1]) != 0 {
			t.Fatalf("%s: %d lines, last %q: want a header, records and a final newline", name, n, lines[n-1])
		}
		for i, line := range lines[:len(lines)-1] {
			var e results.Envelope
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("%s line %d: %v", name, i+1, err)
			}
			want, err := json.Marshal(&e)
			if err != nil {
				t.Fatalf("%s line %d: re-encode: %v", name, i+1, err)
			}
			if want = append(want, '\n'); !bytes.Equal(line, want) {
				t.Fatalf("%s line %d differs from json.Marshal\n got: %s\nwant: %s", name, i+1, line, want)
			}
		}
	}
}

// TestScenarioStreamsReadBack round-trips two scenarios through the
// reader: each stream must parse, summarize, and carry the records a
// comparison keys on — the detection latency TestScenarioVerdicts holds
// the resilience pair apart on, and the director's re-export batches.
func TestScenarioStreamsReadBack(t *testing.T) {
	wantKeys := map[string]string{
		"resilience-on": "derived/detect-latency",
		"tree-reexport": "reexport/leaf",
	}
	for name, key := range wantKeys {
		raw := runScenarioStream(t, name, 0)
		set, err := results.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: stream does not read back: %v", name, err)
		}
		sum := results.Summarize(set)
		found := false
		for _, b := range sum.Batches {
			if k := b.Batch + "/" + b.Metric; len(k) >= len(key) && k[:len(key)] == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no (batch, metric) key under %q in %d batches", name, key, len(sum.Batches))
		}
	}
}
