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
// tolerates exactly that (see Reader). A Writer is fed from one goroutine,
// the order the record digests pin, and takes no lock.
package results

import (
	"encoding/json"
	"fmt"
	"io"

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
// A Writer is fed from one goroutine (a sharded run's: shard 0's), which a
// deterministic record order needs anyway; it is not safe for concurrent
// use.
type Writer struct {
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
	return w.err
}

// Records reports how many record envelopes have been written.
func (w *Writer) Records() int {
	return w.records
}

// FromTable converts one experiment table into records — one per numeric
// cell — so the whole existing suite produces envelopes without
// per-experiment code. The batch key is "<table id>/rowNN/<row label>"
// (the row index keeps repeated labels distinct), the metric is the
// column name, and the sample and unit are the cell's value before
// rounding and its unit. The table is not modified. Tables carry no
// timeline, so AtNS is 0.
func FromTable(t *report.Table) []Record {
	var recs []Record
	for i, row := range t.Rows {
		label := ""
		if len(row) > 0 {
			label = row[0].Text
		}
		batch := fmt.Sprintf("%s/row%02d/%s", t.ID, i, label)
		for j, cell := range row {
			if j >= len(t.Columns) {
				break
			}
			if !cell.Numeric {
				continue
			}
			recs = append(recs, Record{
				Batch:   batch,
				Metric:  t.Columns[j],
				Unit:    cell.Unit,
				Samples: []float64{cell.Value},
			})
		}
	}
	return recs
}
