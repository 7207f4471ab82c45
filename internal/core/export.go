package core

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// ExportCSV writes every retained measurement (all series' history) as CSV
// for offline analysis, ordered by (path, metric, time). Columns:
// path, metric, value, unit, quality, taken_at_seconds, error.
func (db *Database) ExportCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"path", "metric", "value", "unit", "quality", "taken_at_seconds", "error"}); err != nil {
		return err
	}
	for _, key := range db.sortedKeys() {
		s := db.series[key]
		var werr error
		if s.count > 0 {
			s.each(s.count, func(m Measurement) bool {
				rec := []string{
					string(m.Path),
					m.Metric.String(),
					fmt.Sprintf("%g", m.Value),
					m.Metric.Unit(),
					m.Quality.String(),
					fmt.Sprintf("%.6f", m.TakenAt.Seconds()),
					m.Err,
				}
				werr = cw.Write(rec)
				return werr == nil
			})
		}
		if werr != nil {
			return werr
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary aggregates one series for reporting.
type Summary struct {
	Path     PathID
	Metric   metrics.Metric
	Samples  int
	Failures int
	Mean     float64
	Min, Max float64
	Last     Measurement
}

// Summarize folds each series' retained history into a Summary, ordered by
// (path, metric).
func (db *Database) Summarize() []Summary {
	keys := db.sortedKeys()
	out := make([]Summary, 0, len(keys))
	for _, key := range keys {
		s := db.series[key]
		sum := Summary{Path: key.path, Metric: key.metric, Last: s.current}
		var vals []float64
		if s.count > 0 {
			s.each(s.count, func(m Measurement) bool {
				sum.Samples++
				if !m.OK() {
					sum.Failures++
					return true
				}
				vals = append(vals, m.Value)
				return true
			})
		}
		if len(vals) > 0 {
			sum.Mean = metrics.Mean(vals)
			sum.Min, sum.Max = metrics.MinMax(vals)
		}
		out = append(out, sum)
	}
	return out
}
