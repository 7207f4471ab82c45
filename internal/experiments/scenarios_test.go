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

// TestScenarioEnvelopesBitIdenticalAcrossShards is the determinism
// contract of DESIGN.md §14: the same scenario run twice at each of 1, 2,
// 4 and 8 shards yields byte-identical envelope streams. Any wall-clock
// leak, map-order dependence, or shard-visible divergence breaks this.
func TestScenarioEnvelopesBitIdenticalAcrossShards(t *testing.T) {
	var want []byte
	for _, shards := range []int{1, 2, 4, 8} {
		for run := 0; run < 2; run++ {
			got := runScenarioStream(t, "fidelity-cots", shards)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("stream diverged at %d shards, run %d (%d vs %d bytes)",
					shards, run, len(got), len(want))
			}
		}
	}
}

// TestResultsRecordingZeroEffect asserts the seam is purely
// observational: the E12 chaos drill reports identical stats whether or
// not its database streams results (runE12's doc comment names this test).
func TestResultsRecordingZeroEffect(t *testing.T) {
	silent := runE12(true, true, nil)
	var buf bytes.Buffer
	w := results.NewWriter(&buf, "zero-effect", 0, results.RunMeta{Tool: "scenarios_test"})
	recorded := runE12(true, true, w)
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

// TestScenarioRecordDigestPinned holds one quick scenario stream's
// record_digest fixed (the hash of json.Marshal of each record), so the
// encoder and the director's re-export cannot move an archived digest.
func TestScenarioRecordDigestPinned(t *testing.T) {
	set, err := results.Read(bytes.NewReader(runScenarioStream(t, "tree-reexport", 0)))
	if err != nil {
		t.Fatalf("stream does not read back: %v", err)
	}
	const want = "aa5723755c418fc4346916b9126344320e68929e99a08e4af560b9b079713e77"
	if got := set.RecordDigest(); got != want {
		t.Errorf("tree-reexport RecordDigest = %s, want %s", got, want)
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

// TestScenarioStreamsReadBack round-trips the remaining scenarios through
// the reader: every stream must parse, summarize, and carry the derived
// records the results gate compares on.
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
