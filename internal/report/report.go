// Package report renders the experiment harness's tables as aligned text
// and markdown.
package report

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Table is one experiment's result table.
type Table struct {
	ID      string // experiment id, e.g. "E1"
	Title   string
	Paper   string // what the paper reports (the claim being reproduced)
	Columns []string
	Rows    [][]Cell
	Notes   []string
}

// Cell is one table cell: the text the table renders and, for a measured
// quantity, the value before rounding and its unit. Readers that want the
// number take Value; nothing parses Text back.
type Cell struct {
	Text  string
	Value float64
	// Unit is "bits/s", "%" (Value in percent points), "s", or "" for a
	// count or plain number.
	Unit string
	// Numeric marks Value and Unit as meaningful; a label or a "-" is not.
	Numeric bool
}

// String returns the rendered text.
func (c Cell) String() string { return c.Text }

// Num is a numeric cell rendered as text. A NaN or infinite v stays a text
// cell: JSON cannot carry it.
func Num(text string, v float64, unit string) Cell {
	return Cell{Text: text, Value: v, Unit: unit, Numeric: !math.IsNaN(v) && !math.IsInf(v, 0)}
}

// AddRow appends a row. A Cell is kept as it is; an int, a uint64 or a
// float64 becomes a plain numeric cell; anything else is text, formatted
// with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case Cell:
			row[i] = v
		case int:
			row[i] = Num(strconv.Itoa(v), float64(v), "")
		case uint64:
			row[i] = Num(strconv.FormatUint(v, 10), float64(v), "")
		case float64:
			row[i] = Num(fmt.Sprint(v), v, "")
		default:
			row[i] = Cell{Text: fmt.Sprint(v)}
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Paper)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell.Text) > widths[i] {
				widths[i] = len(cell.Text)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(texts(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "**Paper:** %s\n\n", t.Paper)
	}
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(texts(row), " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// texts returns a row's rendered cells.
func texts(row []Cell) []string {
	out := make([]string, len(row))
	for i, c := range row {
		out[i] = c.Text
	}
	return out
}

// Bps formats a bit rate with engineering units.
func Bps(v float64) Cell {
	var text string
	switch {
	case v >= 1e9:
		text = fmt.Sprintf("%.2f Gb/s", v/1e9)
	case v >= 1e6:
		text = fmt.Sprintf("%.2f Mb/s", v/1e6)
	case v >= 1e3:
		text = fmt.Sprintf("%.1f kb/s", v/1e3)
	default:
		text = fmt.Sprintf("%.0f b/s", v)
	}
	return Num(text, v, "bits/s")
}

// Pct formats a 0..1 fraction as a percentage; its value is in percent
// points.
func Pct(v float64) Cell { return Num(fmt.Sprintf("%.1f%%", v*100), v*100, "%") }

// Dur formats a duration rounded for tables; its value is in seconds.
func Dur(d time.Duration) Cell {
	var text string
	switch {
	case d >= time.Second:
		text = fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		text = fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		text = fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
	return Num(text, d.Seconds(), "s")
}

// Count formats an integer with thousands separators.
func Count(n uint64) Cell {
	s := strconv.FormatUint(n, 10)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return Num(string(out), float64(n), "")
}
