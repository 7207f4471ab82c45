package results

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/sketch"
)

// Set is one fully read result stream: the scenario identity from the
// header plus every record, in file order.
type Set struct {
	Scenario string
	Shards   int
	Run      RunMeta
	Records  []Record
	// Truncated reports that the stream ended in a partially written last
	// line (a crash mid-append); the complete records before it are kept.
	Truncated bool
}

// Read streams a JSONL result set. It fails on an unknown (newer) schema
// version, on malformed interior lines, and on a missing header; it
// tolerates exactly one incomplete final line, the most a crashed writer
// can leave behind.
func Read(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	s := &Set{}
	lineNo := 0
	sawHeader := false
	var pendingErr error // parse failure held back until we know the line was not last
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		lineNo++
		if pendingErr != nil {
			return nil, pendingErr
		}
		if len(line) == 0 {
			continue
		}
		var e Envelope
		if err := json.Unmarshal(line, &e); err != nil {
			// Might be the torn last line; only an error if more follow.
			pendingErr = fmt.Errorf("results: line %d: %w", lineNo, err)
			s.Truncated = true
			continue
		}
		if e.SchemaVersion > SchemaVersion || e.SchemaVersion < 1 {
			return nil, fmt.Errorf("results: line %d: schema_version %d not supported (this reader understands versions 1..%d; upgrade cmd/results)",
				lineNo, e.SchemaVersion, SchemaVersion)
		}
		if !sawHeader {
			if e.Run == nil {
				return nil, fmt.Errorf("results: line %d: first line must be the run header (run metadata missing)", lineNo)
			}
			sawHeader = true
			s.Scenario, s.Shards, s.Run = e.Scenario, e.Shards, *e.Run
			continue
		}
		if e.Record != nil {
			s.Records = append(s.Records, *e.Record)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("results: read: %w", err)
	}
	if !sawHeader && (lineNo == 0 || s.Truncated) {
		// Empty stream or only a torn header: nothing usable.
		return nil, fmt.Errorf("results: stream holds no complete header line")
	}
	return s, nil
}

// RecordDigest is a canonical hash over the record payloads alone —
// scenario labels, shard counts, and run metadata excluded — so two runs
// can be checked for bit-identical measurements even when their envelope
// headers legitimately differ (e.g. a 1-shard vs an 8-shard run). Each
// record is hashed as the writer encodes it (appendRecord) plus a newline.
func (s *Set) RecordDigest() string {
	h := sha256.New()
	var line []byte
	for i := range s.Records {
		var err error
		if line, err = appendRecord(line[:0], &s.Records[i]); err != nil {
			line = line[:0] // a NaN or ±Inf sample: hash no bytes, as json.Marshal gave none
		}
		h.Write(append(line, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BatchSummary aggregates every record sharing one (batch, metric) key:
// exact count/min/max/mean plus sketch-backed p50/p95/p99 over all
// samples (see internal/sketch for the estimator's accuracy bounds).
type BatchSummary struct {
	Batch   string  `json:"batch"`
	Metric  string  `json:"metric"`
	Unit    string  `json:"unit,omitempty"`
	Batches int     `json:"batches"` // records merged into this summary
	Count   uint64  `json:"count"`   // total samples
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
}

// Summary is one scenario's machine-readable digest: the per-(batch,
// metric) summaries in sorted key order plus per-metric rollups across
// batches.
type Summary struct {
	Scenario  string         `json:"scenario"`
	Shards    int            `json:"shards"`
	Run       RunMeta        `json:"run"`
	Records   int            `json:"records"`
	Truncated bool           `json:"truncated,omitempty"`
	Digest    string         `json:"record_digest"`
	Batches   []BatchSummary `json:"batches"`
	Metrics   []BatchSummary `json:"metrics"` // Batch == "" rollup per metric
}

// fill copies a sketch's digest into the summary's numeric fields.
func (b *BatchSummary) fill(sk *sketch.Sketch) {
	sum := sk.Summary()
	b.Count = sum.Count
	b.Min, b.Max, b.Mean = sum.Min, sum.Max, sum.Mean
	b.P50, b.P95, b.P99 = sum.P50, sum.P95, sum.P99
}

// Summarize computes the scenario digest of a read set.
func Summarize(s *Set) *Summary {
	type agg struct {
		sk      *sketch.Sketch
		unit    string
		batches int
	}
	type key struct{ batch, metric string }
	byBatch := make(map[key]*agg)
	byMetric := make(map[key]*agg)
	get := func(m map[key]*agg, k key, unit string) *agg {
		a := m[k]
		if a == nil {
			a = &agg{sk: &sketch.Sketch{}, unit: unit}
			m[k] = a
		}
		return a
	}
	for i := range s.Records {
		r := &s.Records[i]
		for _, a := range []*agg{
			get(byBatch, key{r.Batch, r.Metric}, r.Unit),
			get(byMetric, key{"", r.Metric}, r.Unit),
		} {
			a.batches++
			for _, v := range r.Samples {
				a.sk.Update(v)
			}
		}
	}
	out := &Summary{Scenario: s.Scenario, Shards: s.Shards, Run: s.Run,
		Records: len(s.Records), Truncated: s.Truncated, Digest: s.RecordDigest()}
	for k, a := range byBatch {
		b := BatchSummary{Batch: k.batch, Metric: k.metric, Unit: a.unit, Batches: a.batches}
		b.fill(a.sk)
		out.Batches = append(out.Batches, b)
	}
	sort.Slice(out.Batches, func(i, j int) bool {
		if out.Batches[i].Batch != out.Batches[j].Batch {
			return out.Batches[i].Batch < out.Batches[j].Batch
		}
		return out.Batches[i].Metric < out.Batches[j].Metric
	})
	for k, a := range byMetric {
		b := BatchSummary{Metric: k.metric, Unit: a.unit, Batches: a.batches}
		b.fill(a.sk)
		out.Metrics = append(out.Metrics, b)
	}
	sort.Slice(out.Metrics, func(i, j int) bool { return out.Metrics[i].Metric < out.Metrics[j].Metric })
	return out
}

// Fields selectable for comparison, in report order.
var compareFields = []string{"count", "min", "max", "mean", "p50", "p95", "p99"}

// field extracts one named numeric field from a batch summary.
func (b *BatchSummary) field(name string) float64 {
	switch name {
	case "count":
		return float64(b.Count)
	case "min":
		return b.Min
	case "max":
		return b.Max
	case "mean":
		return b.Mean
	case "p50":
		return b.P50
	case "p95":
		return b.P95
	case "p99":
		return b.P99
	}
	return math.NaN()
}

// ValidFields reports whether every comma-separated field name is
// comparable, returning the parsed list.
func ValidFields(spec string) ([]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("results: empty field list")
	}
	var out []string
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		ok := false
		for _, known := range compareFields {
			if f == known {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("results: unknown compare field %q (valid: %s)", f, strings.Join(compareFields, ","))
		}
		out = append(out, f)
	}
	return out, nil
}

// Divergence is one compared value outside tolerance.
type Divergence struct {
	Batch   string  `json:"batch"`
	Metric  string  `json:"metric"`
	Field   string  `json:"field,omitempty"`
	A       float64 `json:"a"`
	B       float64 `json:"b"`
	DiffPct float64 `json:"diff_pct"`
	// Missing marks a (batch, metric) present in only one set.
	Missing string `json:"missing,omitempty"` // "a" or "b"
}

func (d Divergence) String() string {
	if d.Missing != "" {
		return fmt.Sprintf("%s/%s: present only in set %s", d.Batch, d.Metric,
			map[string]string{"a": "B", "b": "A"}[d.Missing])
	}
	return fmt.Sprintf("%s/%s %s: a=%g b=%g diff=%.2f%%", d.Batch, d.Metric, d.Field, d.A, d.B, d.DiffPct)
}

// Comparison is the machine-readable outcome of CompareSummaries.
type Comparison struct {
	ScenarioA        string       `json:"scenario_a"`
	ScenarioB        string       `json:"scenario_b"`
	TolerancePct     float64      `json:"tolerance_pct"`
	Fields           []string     `json:"fields"`
	Match            string       `json:"match,omitempty"`
	Compared         int          `json:"compared"` // (batch, metric) keys compared
	RecordsIdentical bool         `json:"records_identical"`
	Divergences      []Divergence `json:"divergences"`
}

// DiffPct is the comparison's divergence measure: the absolute difference
// as a percentage of the larger magnitude. Two zeros diverge 0%; a zero
// against a non-zero diverges 100%.
func DiffPct(a, b float64) float64 {
	if a == b {
		return 0
	}
	ref := math.Max(math.Abs(a), math.Abs(b))
	if ref == 0 {
		return 0
	}
	return math.Abs(a-b) / ref * 100
}

// CompareSummaries applies the k8s-netperf-style tolerance rule: every
// (batch, metric) key present in both summaries is compared on the given
// fields (default: all of count/min/max/mean/p50/p95/p99), and any value
// whose DiffPct exceeds tolerancePct — at tolerance 0, any inequality —
// is reported as a divergence, as is any key present in only one set.
// match, when non-empty, restricts comparison to keys whose
// "batch/metric" string contains it.
func CompareSummaries(a, b *Summary, tolerancePct float64, fields []string, match string) *Comparison {
	if len(fields) == 0 {
		fields = compareFields
	}
	c := &Comparison{ScenarioA: a.Scenario, ScenarioB: b.Scenario,
		TolerancePct: tolerancePct, Fields: fields, Match: match,
		RecordsIdentical: a.Digest == b.Digest}
	type key struct{ batch, metric string }
	keep := func(k key) bool {
		return match == "" || strings.Contains(k.batch+"/"+k.metric, match)
	}
	am := make(map[key]*BatchSummary, len(a.Batches))
	for i := range a.Batches {
		am[key{a.Batches[i].Batch, a.Batches[i].Metric}] = &a.Batches[i]
	}
	seen := make(map[key]bool, len(b.Batches))
	for i := range b.Batches {
		bs := &b.Batches[i]
		k := key{bs.Batch, bs.Metric}
		if !keep(k) {
			continue
		}
		seen[k] = true
		as, ok := am[k]
		if !ok {
			c.Divergences = append(c.Divergences, Divergence{Batch: k.batch, Metric: k.metric, Missing: "a"})
			continue
		}
		c.Compared++
		for _, f := range fields {
			av, bv := as.field(f), bs.field(f)
			if d := DiffPct(av, bv); d > tolerancePct {
				c.Divergences = append(c.Divergences, Divergence{
					Batch: k.batch, Metric: k.metric, Field: f, A: av, B: bv, DiffPct: d})
			}
		}
	}
	for i := range a.Batches {
		k := key{a.Batches[i].Batch, a.Batches[i].Metric}
		if keep(k) && !seen[k] {
			c.Divergences = append(c.Divergences, Divergence{Batch: k.batch, Metric: k.metric, Missing: "b"})
		}
	}
	sort.Slice(c.Divergences, func(i, j int) bool {
		di, dj := c.Divergences[i], c.Divergences[j]
		if di.Batch != dj.Batch {
			return di.Batch < dj.Batch
		}
		if di.Metric != dj.Metric {
			return di.Metric < dj.Metric
		}
		return di.Field < dj.Field
	})
	return c
}
