// Package results is the durable results pipeline: experiments and
// monitors append schema-versioned JSONL envelopes (one per sample batch)
// to an io.Writer, and the reader side streams them back to compute
// per-batch and per-scenario summaries and scenario-vs-scenario tolerance
// comparisons (see reader.go and cmd/results).
//
// The format follows InternetQualityMonitor's monitor_results.jsonl shape:
// every line is one Envelope carrying the schema version and the scenario
// identity; the first line of a stream additionally carries the run
// metadata. Environmental fields (tool, commit, Go version) live only in
// the run header and are excluded from comparisons; everything in a Record
// is derived from simulation state, so two runs of the same scenario
// produce byte-identical record streams at any shard count.
//
// Durability contract: lines are complete JSON objects flushed in order,
// so a crash can lose at most the partially written last line; the reader
// tolerates exactly that (see Reader).
package results

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
)

// SchemaVersion is the envelope schema this package writes and the newest
// it can read. Bump it when a field changes meaning or is removed; pure
// additions may keep the version (readers ignore unknown fields).
const SchemaVersion = 1

// RunMeta describes the producing process — environmental identity only,
// never simulation state. It appears once, on the stream's header line,
// and is deliberately excluded from tolerance comparisons.
type RunMeta struct {
	// Tool names the producer, e.g. "cmd/experiments".
	Tool string `json:"tool,omitempty"`
	// Go is the producing toolchain version (runtime.Version()).
	Go string `json:"go,omitempty"`
	// Commit is the git commit of the producing tree, when known: the
	// binary's VCS stamp (suffixed "-dirty" for a modified tree), else
	// $GITHUB_SHA; empty when neither is available, as under `go run`.
	Commit string `json:"commit,omitempty"`
}

// Record is one closed sample batch: a named series within the scenario,
// the metric measured, and the raw sample values, stamped with the virtual
// time the batch closed. Samples stay raw so the reader can recompute any
// summary (and feed quantile sketches) offline.
type Record struct {
	// Batch identifies the series within the scenario, e.g. a path ID, a
	// table row, or a director re-export stream.
	Batch string `json:"batch"`
	// Metric is the measured quantity, e.g. "throughput" or a derived
	// scenario metric like "detect-latency".
	Metric string `json:"metric"`
	// Unit is the samples' unit, e.g. "bits/s"; empty when dimensionless.
	Unit string `json:"unit,omitempty"`
	// AtNS is the virtual (simulation) time the batch closed, in
	// nanoseconds — never wall-clock time.
	AtNS int64 `json:"at_ns"`
	// Samples are the batch's raw values, in collection order.
	Samples []float64 `json:"samples"`
}

// Envelope is one JSONL line. The header line carries Run and no Record;
// every subsequent line carries a Record.
type Envelope struct {
	SchemaVersion int      `json:"schema_version"`
	Scenario      string   `json:"scenario"`
	Shards        int      `json:"shards"`
	Run           *RunMeta `json:"run,omitempty"`
	Record        *Record  `json:"record,omitempty"`
}

// Writer appends envelopes to an io.Writer, one JSON line each. The
// header line is written on the first append. Errors are sticky: after a
// write fails, further appends are dropped and Err reports the failure.
// Writer is safe for concurrent use, but callers who need a deterministic
// record order must feed it from one goroutine (in this repo: shard 0's).
type Writer struct {
	mu       sync.Mutex
	w        io.Writer
	scenario string
	shards   int
	run      RunMeta
	started  bool
	records  int
	buf      []byte // the line being written, reused so a warm Write allocates nothing
	err      error
}

// NewWriter prepares a JSONL stream for one scenario run. shards is the
// kernel shard count the run executes on (0 or 1 = plain kernel).
func NewWriter(w io.Writer, scenario string, shards int, run RunMeta) *Writer {
	return &Writer{w: w, scenario: scenario, shards: shards, run: run}
}

// Write appends one record envelope (plus the header, first time).
func (w *Writer) Write(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if !w.started {
		w.started = true
		run := w.run
		hdr, err := json.Marshal(Envelope{SchemaVersion: SchemaVersion,
			Scenario: w.scenario, Shards: w.shards, Run: &run})
		if err == nil {
			err = w.emit(append(hdr, '\n'))
		}
		if w.err = err; err != nil {
			return err
		}
	}
	w.buf, w.err = appendRecordLine(w.buf[:0], w.scenario, w.shards, &rec)
	if w.err == nil {
		w.err = w.emit(w.buf)
	}
	if w.err == nil {
		w.records++
	}
	return w.err
}

// WriteBatch is the core.BatchSink form of Write — the seam
// core.Database and director re-exports feed batches through without
// importing this package.
func (w *Writer) WriteBatch(batch, metric, unit string, atNS int64, samples []float64) error {
	return w.Write(Record{Batch: batch, Metric: metric, Unit: unit, AtNS: atNS, Samples: samples})
}

// emit hands one complete line to the underlying writer in a single Write
// call. Lines are never buffered together, so a crash loses at most the
// line being written (the durability contract above).
func (w *Writer) emit(line []byte) error {
	if _, err := w.w.Write(line); err != nil {
		return fmt.Errorf("results: write: %w", err)
	}
	return nil
}

// Err returns the sticky write error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Records reports how many record envelopes have been written.
func (w *Writer) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// FromTable converts one experiment table into records — one per numeric
// cell — so the whole existing suite produces envelopes without
// per-experiment code. The batch key is "<table id>/rowNN/<row label>"
// (the row index keeps repeated labels distinct), the metric is the
// column name, and the unit comes from the cell's formatting. The table
// is not modified. Tables carry no timeline, so AtNS is 0.
func FromTable(t *report.Table) []Record {
	var recs []Record
	for i, row := range t.Rows {
		label := ""
		if len(row) > 0 {
			label = row[0]
		}
		batch := fmt.Sprintf("%s/row%02d/%s", t.ID, i, label)
		for j, cell := range row {
			if j >= len(t.Columns) {
				break
			}
			v, unit, ok := ParseCell(cell)
			if !ok {
				continue
			}
			recs = append(recs, Record{
				Batch:   batch,
				Metric:  t.Columns[j],
				Unit:    unit,
				Samples: []float64{v},
			})
		}
	}
	return recs
}

// ParseCell recovers a numeric value from a formatted table cell, undoing
// the report package's formatters: durations ("3.06s", "12.34ms", "510µs")
// become seconds, rates ("2.18 Mb/s", "43.5 kb/s") become bits/s,
// percentages ("12.5%") stay in percent points, and counts keep their
// thousands separators ("12,320"). ok is false for non-numeric cells.
func ParseCell(s string) (v float64, unit string, ok bool) {
	s = strings.TrimSpace(s)
	if s == "" || s == "-" {
		return 0, "", false
	}
	// Rates: "<number> <scale>b/s".
	if i := strings.IndexByte(s, ' '); i > 0 && strings.HasSuffix(s, "b/s") {
		n, err := strconv.ParseFloat(s[:i], 64)
		if err != nil {
			return 0, "", false
		}
		switch s[i+1:] {
		case "b/s":
			return n, "bits/s", true
		case "kb/s":
			return n * 1e3, "bits/s", true
		case "Mb/s":
			return n * 1e6, "bits/s", true
		case "Gb/s":
			return n * 1e9, "bits/s", true
		}
		return 0, "", false
	}
	if strings.HasSuffix(s, "%") {
		n, err := strconv.ParseFloat(s[:len(s)-1], 64)
		if err != nil {
			return 0, "", false
		}
		return n, "%", true
	}
	// Plain numbers, possibly with thousands separators. ParseFloat also
	// accepts "inf"/"NaN", which JSON cannot carry — reject those.
	if n, err := strconv.ParseFloat(strings.ReplaceAll(s, ",", ""), 64); err == nil {
		if math.IsInf(n, 0) || math.IsNaN(n) {
			return 0, "", false
		}
		return n, "", true
	}
	// Durations last: ParseDuration accepts compound forms ("1m30s"), and
	// report.Dur only ever emits single-unit values, but accepting the
	// general form costs nothing.
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), "s", true
	}
	return 0, "", false
}
