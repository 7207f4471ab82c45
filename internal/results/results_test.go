package results

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

// goldenRun and goldenRecords reproduce testdata/golden.jsonl exactly;
// the golden file pins the on-disk encoding so an accidental field rename
// or reordering fails loudly instead of silently orphaning old archives.
var goldenRun = RunMeta{Tool: "results_test", Go: "go-test", Commit: "deadbeef"}

var goldenRecords = []Record{
	{Batch: "p1", Metric: "throughput", Unit: "bits/s", AtNS: 30000000, Samples: []float64{100, 101.5, 99.25}},
	{Batch: "derived", Metric: "detect-latency", Samples: []float64{1.25}},
}

func TestGoldenEncode(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "golden", 2, goldenRun)
	for _, rec := range goldenRecords {
		if err := w.Write(rec); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	want, err := os.ReadFile("testdata/golden.jsonl")
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("encoding drifted from testdata/golden.jsonl\n got: %s\nwant: %s", buf.Bytes(), want)
	}
	if w.Records() != len(goldenRecords) {
		t.Errorf("Records() = %d, want %d", w.Records(), len(goldenRecords))
	}
}

func TestGoldenDecode(t *testing.T) {
	f, err := os.Open("testdata/golden.jsonl")
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if s.Scenario != "golden" || s.Shards != 2 || s.Run != goldenRun {
		t.Errorf("header = %q/%d/%+v", s.Scenario, s.Shards, s.Run)
	}
	if s.Truncated {
		t.Error("complete golden stream reported Truncated")
	}
	if len(s.Records) != len(goldenRecords) {
		t.Fatalf("got %d records, want %d", len(s.Records), len(goldenRecords))
	}
	for i, rec := range s.Records {
		if rec.Batch != goldenRecords[i].Batch || rec.Metric != goldenRecords[i].Metric ||
			rec.Unit != goldenRecords[i].Unit || rec.AtNS != goldenRecords[i].AtNS {
			t.Errorf("record %d = %+v, want %+v", i, rec, goldenRecords[i])
		}
		for j, v := range rec.Samples {
			if v != goldenRecords[i].Samples[j] {
				t.Errorf("record %d sample %d = %g, want %g", i, j, v, goldenRecords[i].Samples[j])
			}
		}
	}
}

func TestWriterTwoRunsByteIdentical(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf, "det", 4, goldenRun)
		for i := 0; i < 10; i++ {
			if err := w.WriteBatch(fmt.Sprintf("p%d", i%3), "throughput", "bits/s",
				int64(i)*1e6, []float64{float64(i), float64(i) * 2}); err != nil {
				t.Fatalf("WriteBatch: %v", err)
			}
		}
		return buf.Bytes()
	}
	if a, b := emit(), emit(); !bytes.Equal(a, b) {
		t.Fatal("two identical writer runs produced different bytes")
	}
}

func TestFutureSchemaVersionRejected(t *testing.T) {
	in := `{"schema_version":2,"scenario":"x","shards":0,"run":{"tool":"t"}}` + "\n"
	_, err := Read(strings.NewReader(in))
	if err == nil {
		t.Fatal("schema_version 2 accepted by a version-1 reader")
	}
	for _, want := range []string{"schema_version 2", "upgrade"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := Read(strings.NewReader(`{"schema_version":0,"scenario":"x"}` + "\n")); err == nil {
		t.Fatal("schema_version 0 (header-less legacy junk) accepted")
	}
}

func TestTruncatedLastLineTolerated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "torn", 1, goldenRun)
	for _, rec := range goldenRecords {
		if err := w.Write(rec); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	whole := buf.String()
	// A crash mid-append leaves a prefix of the final line.
	torn := whole[:len(whole)-25]
	s, err := Read(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if !s.Truncated {
		t.Error("torn stream not flagged Truncated")
	}
	if len(s.Records) != len(goldenRecords)-1 {
		t.Errorf("kept %d complete records, want %d", len(s.Records), len(goldenRecords)-1)
	}

	// The same damage in the interior is corruption, not a crash artifact.
	lines := strings.SplitAfter(whole, "\n")
	lines[1] = lines[1][:10] + "\n"
	if _, err := Read(strings.NewReader(strings.Join(lines, ""))); err == nil {
		t.Fatal("interior corruption silently accepted")
	}
}

func TestReadRejectsHeaderlessAndEmptyStreams(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	rec := `{"schema_version":1,"scenario":"x","shards":0,"record":{"batch":"b","metric":"m","at_ns":0,"samples":[1]}}` + "\n"
	if _, err := Read(strings.NewReader(rec)); err == nil {
		t.Error("stream whose first line is not the run header accepted")
	}
}

func TestRecordDigestIgnoresHeaders(t *testing.T) {
	emit := func(scenario string, shards int, samples []float64) *Set {
		var buf bytes.Buffer
		w := NewWriter(&buf, scenario, shards, goldenRun)
		if err := w.WriteBatch("p", "throughput", "bits/s", 1000, samples); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		s, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		return s
	}
	one := emit("a", 1, []float64{1, 2, 3})
	eight := emit("b", 8, []float64{1, 2, 3})
	if one.RecordDigest() != eight.RecordDigest() {
		t.Error("digest differs across header-only changes (scenario, shard count)")
	}
	if one.RecordDigest() == emit("a", 1, []float64{1, 2, 4}).RecordDigest() {
		t.Error("digest identical despite differing samples")
	}
}

// TestRecordDigestPinned holds the digest of testdata/golden.jsonl fixed
// (it is the hash of json.Marshal of each record): record_digest values
// already archived must keep comparing equal.
func TestRecordDigestPinned(t *testing.T) {
	f, err := os.Open("testdata/golden.jsonl")
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	const want = "3092029907a5e1d41b60cc18efbf54520d725a10840bf35abb246fb3b2d33285"
	if got := s.RecordDigest(); got != want {
		t.Errorf("RecordDigest(golden.jsonl) = %s, want %s", got, want)
	}
}

func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, "sum", 1, goldenRun)
	for i := 0; i < 4; i++ {
		w.WriteBatch("p1", "throughput", "bits/s", int64(i), []float64{100, 200})
	}
	w.WriteBatch("p2", "throughput", "bits/s", 99, []float64{300})
	w.WriteBatch("p1", "one-way-latency", "s", 99, []float64{0.5})
	s, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	sum := Summarize(s)
	if sum.Records != 6 {
		t.Errorf("Records = %d, want 6", sum.Records)
	}
	// Sorted key order: (p1, one-way-latency), (p1, throughput), (p2, throughput).
	if len(sum.Batches) != 3 || sum.Batches[0].Metric != "one-way-latency" ||
		sum.Batches[1].Batch != "p1" || sum.Batches[2].Batch != "p2" {
		t.Fatalf("batch summaries out of order: %+v", sum.Batches)
	}
	b := sum.Batches[1]
	if b.Batches != 4 || b.Count != 8 || b.Min != 100 || b.Max != 200 || b.Mean != 150 {
		t.Errorf("p1/throughput summary wrong: %+v", b)
	}
	// Per-metric rollup folds p1 and p2 together.
	var roll *BatchSummary
	for i := range sum.Metrics {
		if sum.Metrics[i].Metric == "throughput" {
			roll = &sum.Metrics[i]
		}
	}
	if roll == nil || roll.Count != 9 || roll.Max != 300 {
		t.Errorf("throughput rollup wrong: %+v", roll)
	}
}

// TestFromTable: one record per numeric cell, carrying the value the cell
// was built from, not its rounded text, and the cell's unit. A label, a "-",
// NaN and ±Inf (which JSON cannot carry) give none.
func TestFromTable(t *testing.T) {
	tab := &report.Table{
		ID:      "E1",
		Columns: []string{"mode", "throughput", "overhead", "samples", "path", "latency", "skew"},
	}
	tab.AddRow("hifi", report.Bps(2184533), report.Pct(0.01234), 27, "s1->c5", report.Dur(1234*time.Millisecond), math.NaN())
	tab.AddRow("hifi", report.Bps(2.2e6), "-", uint64(12320), "s2->c5", "-", math.Inf(1)) // repeated label
	tab.AddRow("cots", report.Bps(0), "-", 0, "s3->c5", "-", -0.25)
	before := fmt.Sprintf("%+v", tab)
	recs := FromTable(tab)
	if after := fmt.Sprintf("%+v", tab); after != before {
		t.Fatal("FromTable mutated the table")
	}
	want := []Record{
		{Batch: "E1/row00/hifi", Metric: "throughput", Unit: "bits/s", Samples: []float64{2184533}},
		{Batch: "E1/row00/hifi", Metric: "overhead", Unit: "%", Samples: []float64{0.01234 * 100}},
		{Batch: "E1/row00/hifi", Metric: "samples", Samples: []float64{27}},
		{Batch: "E1/row00/hifi", Metric: "latency", Unit: "s", Samples: []float64{1.234}},
		// Row indices keep repeated labels distinct.
		{Batch: "E1/row01/hifi", Metric: "throughput", Unit: "bits/s", Samples: []float64{2.2e6}},
		{Batch: "E1/row01/hifi", Metric: "samples", Samples: []float64{12320}},
		{Batch: "E1/row02/cots", Metric: "throughput", Unit: "bits/s", Samples: []float64{0}},
		{Batch: "E1/row02/cots", Metric: "samples", Samples: []float64{0}},
		{Batch: "E1/row02/cots", Metric: "skew", Samples: []float64{-0.25}},
	}
	if got, exp := fmt.Sprintf("%+v", recs), fmt.Sprintf("%+v", want); got != exp {
		t.Errorf("FromTable =\n%s\nwant\n%s", got, exp)
	}
}

func TestValidFields(t *testing.T) {
	got, err := ValidFields("mean, p50 ,count")
	if err != nil || len(got) != 3 || got[1] != "p50" {
		t.Errorf("ValidFields = (%v, %v)", got, err)
	}
	if _, err := ValidFields("mean,p42"); err == nil || !strings.Contains(err.Error(), "p42") {
		t.Errorf("unknown field not rejected by name: %v", err)
	}
	if _, err := ValidFields(""); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestDiffPct(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{100, 100, 0},
		{0, 0, 0},
		{100, 150, 100.0 / 3},
		{150, 100, 100.0 / 3},
		{0, 5, 100},
		{-100, 100, 200},
	}
	for _, c := range cases {
		if got := DiffPct(c.a, c.b); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("DiffPct(%g, %g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

// summarize builds a Summary from (batch, metric) -> samples pairs.
func summarize(t *testing.T, scenario string, series map[string][]float64) *Summary {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, scenario, 1, RunMeta{Tool: "t"})
	// Feed in sorted order for determinism.
	var keys []string
	for k := range series {
		keys = append(keys, k)
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	for _, k := range keys {
		batch, metric, _ := strings.Cut(k, "/")
		if err := w.WriteBatch(batch, metric, "", 0, series[k]); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	}
	s, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return Summarize(s)
}

func TestCompareSummariesNamesOffenders(t *testing.T) {
	a := summarize(t, "a", map[string][]float64{"p1/throughput": {100, 100}, "p1/latency": {5}})
	b := summarize(t, "b", map[string][]float64{"p1/throughput": {150, 150}, "p1/latency": {5}})
	c := CompareSummaries(a, b, 10, []string{"mean", "p50"}, "")
	if c.Compared != 2 {
		t.Errorf("Compared = %d, want 2", c.Compared)
	}
	if c.RecordsIdentical {
		t.Error("diverging streams reported bit-identical")
	}
	if len(c.Divergences) != 2 { // mean and p50 on throughput; latency agrees
		t.Fatalf("got %d divergences: %+v", len(c.Divergences), c.Divergences)
	}
	if s := c.Divergences[0].String(); !strings.Contains(s, "p1/throughput mean") {
		t.Errorf("divergence does not name the offender: %q", s)
	}
	// Inside tolerance the same pair passes.
	if c := CompareSummaries(a, b, 40, []string{"mean"}, ""); len(c.Divergences) != 0 {
		t.Errorf("40%% tolerance still diverges: %+v", c.Divergences)
	}
}

func TestCompareSummariesToleranceZeroIsExact(t *testing.T) {
	a := summarize(t, "a", map[string][]float64{"p/m": {1, 2, 3}})
	b := summarize(t, "b", map[string][]float64{"p/m": {1, 2, 3}})
	c := CompareSummaries(a, b, 0, nil, "")
	if len(c.Divergences) != 0 || !c.RecordsIdentical {
		t.Errorf("identical sets fail tolerance 0: %+v", c)
	}
	b2 := summarize(t, "b", map[string][]float64{"p/m": {1, 2, 3.0000001}})
	if c := CompareSummaries(a, b2, 0, nil, ""); len(c.Divergences) == 0 {
		t.Error("tolerance 0 let a tiny inequality through")
	}
}

func TestCompareSummariesMissingKeysAndMatch(t *testing.T) {
	a := summarize(t, "a", map[string][]float64{"p1/throughput": {1}, "only-a/m": {1}})
	b := summarize(t, "b", map[string][]float64{"p1/throughput": {1}, "only-b/m": {1}})
	c := CompareSummaries(a, b, 0, nil, "")
	if c.Compared != 1 || len(c.Divergences) != 2 {
		t.Fatalf("missing keys not reported: %+v", c)
	}
	if c.Divergences[0].Missing == "" || c.Divergences[1].Missing == "" {
		t.Errorf("missing markers absent: %+v", c.Divergences)
	}
	// match restricts to the shared key; the asymmetric ones drop out.
	if c := CompareSummaries(a, b, 0, nil, "throughput"); c.Compared != 1 || len(c.Divergences) != 0 {
		t.Errorf("match filter wrong: %+v", c)
	}
	if c := CompareSummaries(a, b, 0, nil, "nothing-matches"); c.Compared != 0 {
		t.Errorf("non-matching filter still compared %d keys", c.Compared)
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	e.n--
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&errWriter{n: 2}, "err", 1, RunMeta{})
	if err := w.Write(Record{Batch: "b", Metric: "m", Samples: []float64{1}}); err != nil {
		t.Fatalf("first write (header + record) failed: %v", err)
	}
	if err := w.Write(Record{Batch: "b", Metric: "m", Samples: []float64{2}}); err == nil {
		t.Fatal("write on a full disk succeeded")
	}
	if w.Err() == nil {
		t.Fatal("sticky error lost")
	}
	if w.Records() != 1 {
		t.Errorf("Records() = %d after one success, one failure", w.Records())
	}
}
