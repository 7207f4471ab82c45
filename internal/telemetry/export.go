package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Export shapes: instruments and spans flattened into slices so that both
// the JSON and the text form list everything in registration (respectively
// begin) order — deterministic output for deterministic runs.

type exportInstrument struct {
	Name   string    `json:"name"`
	Kind   string    `json:"kind"` // counter | gauge | histogram
	Value  float64   `json:"value"`
	Count  uint64    `json:"count,omitempty"`  // histogram only
	Sum    float64   `json:"sum,omitempty"`    // histogram only
	Bounds []float64 `json:"bounds,omitempty"` // histogram only
	Counts []uint64  `json:"counts,omitempty"` // histogram only (len(bounds)+1)
}

type exportSpan struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Tag    string  `json:"tag,omitempty"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Open   bool    `json:"open,omitempty"`
}

func (r *Registry) export() []exportInstrument {
	var out []exportInstrument
	r.Each(func(c *Counter, g *Gauge, h *Histogram) {
		switch {
		case c != nil:
			out = append(out, exportInstrument{Name: c.Name(), Kind: "counter", Value: float64(c.Value())})
		case g != nil:
			out = append(out, exportInstrument{Name: g.Name(), Kind: "gauge", Value: g.Value()})
		case h != nil:
			e := exportInstrument{Name: h.Name(), Kind: "histogram", Count: h.Count(), Sum: h.Sum(), Bounds: h.Bounds()}
			e.Counts = make([]uint64, len(h.Bounds())+1)
			for i := range e.Counts {
				e.Counts[i] = h.BucketCount(i)
			}
			out = append(out, e)
		}
	})
	return out
}

// WriteJSON writes every instrument as a JSON array, in registration order.
// A nil registry writes an empty array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	rows := r.export()
	if rows == nil {
		rows = []exportInstrument{}
	}
	return enc.Encode(rows)
}

// WriteText writes a line per instrument, in registration order. A nil
// registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, e := range r.export() {
		switch e.Kind {
		case "counter":
			pr("counter   %-40s %d\n", e.Name, uint64(e.Value))
		case "gauge":
			pr("gauge     %-40s %g\n", e.Name, e.Value)
		case "histogram":
			pr("histogram %-40s count=%d sum=%g buckets=", e.Name, e.Count, e.Sum)
			for i, c := range e.Counts {
				if i > 0 {
					pr(" ")
				}
				if i < len(e.Bounds) {
					pr("le(%g)=%d", e.Bounds[i], c)
				} else {
					pr("inf=%d", c)
				}
			}
			pr("\n")
		}
	}
	return err
}

func (t *Tracer) export() []exportSpan {
	var out []exportSpan
	t.Each(func(s SpanRecord) bool {
		out = append(out, exportSpan{
			ID: s.ID, Parent: s.Parent, Name: s.Name, Tag: s.Tag,
			StartS: s.Start.Seconds(), EndS: s.End.Seconds(), Open: s.Open(),
		})
		return true
	})
	return out
}

// WriteJSON writes retained spans as a JSON array, oldest first. A nil
// tracer writes an empty array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	rows := t.export()
	if rows == nil {
		rows = []exportSpan{}
	}
	return enc.Encode(rows)
}

// WriteText writes retained spans oldest first, children indented under
// their (retained) parents by depth. A nil tracer writes nothing.
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	depth := make(map[int64]int, t.Len())
	var err error
	t.Each(func(s SpanRecord) bool {
		d := 0
		if s.Parent != 0 {
			d = depth[s.Parent] + 1
		}
		depth[s.ID] = d
		dur := "open"
		if !s.Open() {
			dur = s.Duration().String()
		}
		tag := ""
		if s.Tag != "" {
			tag = " " + s.Tag
		}
		_, err = fmt.Fprintf(w, "%*s%s%s @%v +%s\n", 2*d, "", s.Name, tag, s.Start, dur)
		return err == nil
	})
	return err
}

// WriteDump writes a run's self-telemetry in format: "text" as instrument
// lines, a blank line and the indented span tree; "json" as one
// {"instruments": [...], "spans": [...]} object. It returns the first write
// error, or an error naming an unknown format before writing anything.
func WriteDump(w io.Writer, format string, reg *Registry, tracer *Tracer) error {
	var err error
	put := func(s string) {
		if err == nil {
			_, err = io.WriteString(w, s)
		}
	}
	write := func(to func(io.Writer) error) {
		if err == nil {
			err = to(w)
		}
	}
	switch format {
	case "text":
		write(reg.WriteText)
		put("\n")
		write(tracer.WriteText)
	case "json":
		put(`{"instruments": `)
		write(reg.WriteJSON)
		put(`, "spans": `)
		write(tracer.WriteJSON)
		put("}\n")
	default:
		return fmt.Errorf("unknown telemetry format %q (use text or json)", format)
	}
	return err
}

// FormatSpanTime renders a virtual time for compact trace notes.
func FormatSpanTime(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
