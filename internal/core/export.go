package core

import (
	"encoding/csv"
	"fmt"
	"io"
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
