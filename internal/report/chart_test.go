package report

import (
	"strings"
	"testing"
	"time"
)

func rampSeries(name string, n int) Series {
	s := Series{Name: name}
	for i := 0; i < n; i++ {
		s.Points = append(s.Points, Point{X: time.Duration(i) * time.Second, Y: float64(i)})
	}
	return s
}

func TestChartRendersRamp(t *testing.T) {
	c := &Chart{Title: "ramp", Series: []Series{rampSeries("up", 20)}}
	out := c.String()
	if !strings.Contains(out, "ramp") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// The plot area is 64x12: title + 12 rows + axis + x labels = 15 lines.
	if len(lines) != 15 || !strings.HasSuffix(lines[13], " +"+strings.Repeat("-", 64)) {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Monotonic ramp: the glyph in the first plot row (max Y) must be to
	// the right of the glyph in the last plot row (min Y).
	firstIdx := strings.IndexByte(lines[1], '*')
	lastIdx := strings.IndexByte(lines[12], '*')
	if firstIdx <= lastIdx {
		t.Fatalf("ramp not increasing: top at %d, bottom at %d\n%s", firstIdx, lastIdx, out)
	}
	if !strings.Contains(out, "19") || !strings.Contains(out, "0") {
		t.Fatalf("missing y labels:\n%s", out)
	}
}

func TestChartMultiSeriesLegend(t *testing.T) {
	c := &Chart{
		Series: []Series{rampSeries("a", 5), rampSeries("b", 5)},
	}
	out := c.String()
	if !strings.Contains(out, "*=a") || !strings.Contains(out, "o=b") {
		t.Fatalf("legend missing:\n%s", out)
	}
}

func TestChartEmptyAndFlat(t *testing.T) {
	if out := (&Chart{Title: "x"}).String(); !strings.Contains(out, "no data") {
		t.Fatalf("empty chart: %q", out)
	}
	flat := &Chart{Series: []Series{{Name: "f", Points: []Point{
		{X: 0, Y: 5}, {X: time.Second, Y: 5},
	}}}}
	out := flat.String()
	if !strings.Contains(out, "*") {
		t.Fatalf("flat series not plotted:\n%s", out)
	}
}
