package report

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sample() *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Overhead",
		Paper:   "59 Mb/s parallel vs 2.18 Mb/s sequential",
		Columns: []string{"mode", "load"},
	}
	t.AddRow("parallel", Bps(59e6))
	t.AddRow("sequential", Bps(2.18e6))
	t.AddNote("measured on FDDI backbone")
	return t
}

func TestStringAlignment(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "E1 — Overhead") {
		t.Fatalf("missing header: %q", s)
	}
	if !strings.Contains(s, "59.00 Mb/s") || !strings.Contains(s, "2.18 Mb/s") {
		t.Fatalf("missing rows: %q", s)
	}
	if !strings.Contains(s, "note: measured") {
		t.Fatal("missing note")
	}
	lines := strings.Split(s, "\n")
	// Header row and separator row have equal width.
	var hdr, sep string
	for i, l := range lines {
		if strings.HasPrefix(l, "mode") {
			hdr, sep = l, lines[i+1]
			break
		}
	}
	if len(hdr) == 0 || len(hdr) != len(sep) {
		t.Fatalf("alignment: %q vs %q", hdr, sep)
	}
}

func TestMarkdown(t *testing.T) {
	md := sample().Markdown()
	if !strings.Contains(md, "### E1 — Overhead") ||
		!strings.Contains(md, "| mode | load |") ||
		!strings.Contains(md, "| parallel | 59.00 Mb/s |") {
		t.Fatalf("markdown: %q", md)
	}
}

// TestFormatters checks each formatter's rendered text and the value and
// unit it keeps behind it, unrounded.
func TestFormatters(t *testing.T) {
	cases := []struct {
		got   Cell
		text  string
		value float64
		unit  string
	}{
		{Bps(1.5e9), "1.50 Gb/s", 1.5e9, "bits/s"},
		{Bps(2184533), "2.18 Mb/s", 2184533, "bits/s"},
		{Bps(4500), "4.5 kb/s", 4500, "bits/s"},
		{Bps(12), "12 b/s", 12, "bits/s"},
		{Pct(0.123), "12.3%", 0.123 * 100, "%"},
		{Pct(0.12345), "12.3%", 0.12345 * 100, "%"},
		{Dur(1500 * time.Millisecond), "1.50s", 1.5, "s"},
		{Dur(2500 * time.Microsecond), "2.50ms", 0.0025, "s"},
		{Dur(12345 * time.Nanosecond), "12µs", 12.345e-6, "s"},
		{Count(1234567), "1,234,567", 1234567, ""},
		{Count(999), "999", 999, ""},
	}
	for _, c := range cases {
		if c.got.Text != c.text || c.got.Value != c.value || c.got.Unit != c.unit || !c.got.Numeric {
			t.Errorf("got %+v, want text %q value %g unit %q", c.got, c.text, c.value, c.unit)
		}
		if c.got.String() != c.text {
			t.Errorf("String() = %q, want %q", c.got.String(), c.text)
		}
	}
	for _, c := range []Cell{Pct(math.NaN()), Bps(math.Inf(1)), Num("-", math.Inf(-1), "s")} {
		if c.Numeric {
			t.Errorf("%+v is numeric; JSON cannot carry its value", c)
		}
	}
}
