package report

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Point is one sample of a time series.
type Point struct {
	X time.Duration
	Y float64
}

// Series is a named time series for charting.
type Series struct {
	Name   string
	Points []Point
}

// Chart renders time series as ASCII art — the harness's "figure" output
// for timelines (availability through a failover, utilization under load).
type Chart struct {
	Title  string
	YLabel string
	Series []Series
}

// chartWidth and chartHeight are the plot area in characters.
const chartWidth, chartHeight = 64, 12

// seriesGlyphs distinguish overlapping series.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#'}

// String renders the chart.
func (c *Chart) String() string {
	w, h := chartWidth, chartHeight
	var minX, maxX time.Duration
	minY, maxY := math.Inf(1), math.Inf(-1)
	first := true
	for _, s := range c.Series {
		for _, p := range s.Points {
			if first {
				minX, maxX = p.X, p.X
				first = false
			}
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	if first {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if maxY == minY {
		maxY = minY + 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for si, s := range c.Series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for _, p := range s.Points {
			col := int(float64(p.X-minX) / float64(maxX-minX) * float64(w-1))
			row := h - 1 - int((p.Y-minY)/(maxY-minY)*float64(h-1))
			if col >= 0 && col < w && row >= 0 && row < h {
				grid[row][col] = glyph
			}
		}
	}
	yTop := fmt.Sprintf("%.3g", maxY)
	yBot := fmt.Sprintf("%.3g", minY)
	lblW := len(yTop)
	if len(yBot) > lblW {
		lblW = len(yBot)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", lblW)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", lblW, yTop)
		case h - 1:
			label = fmt.Sprintf("%*s", lblW, yBot)
		case h / 2:
			if c.YLabel != "" && len(c.YLabel) <= lblW {
				label = fmt.Sprintf("%*s", lblW, c.YLabel)
			}
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", lblW), strings.Repeat("-", w))
	left := Dur(minX)
	right := Dur(maxX)
	pad := w - len(left) - len(right)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", lblW), left, strings.Repeat(" ", pad), right)
	if len(c.Series) > 1 {
		var legend []string
		for si, s := range c.Series {
			legend = append(legend, fmt.Sprintf("%c=%s", seriesGlyphs[si%len(seriesGlyphs)], s.Name))
		}
		fmt.Fprintf(&b, "%s  %s\n", strings.Repeat(" ", lblW), strings.Join(legend, "  "))
	}
	return b.String()
}
