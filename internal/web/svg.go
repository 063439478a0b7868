// Package web is hadard's HTTP front door: an HTML dashboard over a
// running scheduler service (summary tables, per-job listings,
// completion-CDF and cluster-occupancy charts rendered as inline SVG,
// a JSON summary) and the /api/jobs control API. Everything is stdlib
// (net/http, html/template) so the dashboard works in the offline
// reproduction environment.
package web

import (
	"fmt"
	"math"
	"strings"
)

// palette holds distinguishable stroke colors for up to eight series.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
	"#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
}

// svgSeries is one polyline of a chart.
type svgSeries struct {
	Name string
	X    []float64
	Y    []float64
	// Step draws a right-continuous step function (for CDFs).
	Step bool
}

// lineSVG renders series on shared axes as a standalone SVG document.
func lineSVG(title, xLabel, yLabel string, width, height int, series []svgSeries) string {
	const margin = 55.0
	w, h := float64(width), float64(height)
	plotW, plotH := w-2*margin, h-2*margin

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for i := range s.X {
			if i >= len(s.Y) || !finite(s.X[i]) || !finite(s.Y[i]) {
				continue
			}
			xmin, xmax = math.Min(xmin, s.X[i]), math.Max(xmax, s.X[i])
			ymin, ymax = math.Min(ymin, s.Y[i]), math.Max(ymax, s.Y[i])
			any = true
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, width, height, width, height)
	fmt.Fprintf(&sb, `<text x="%g" y="20" font-size="14" font-family="sans-serif">%s</text>`, margin, escape(title))
	if !any {
		sb.WriteString(`<text x="50%" y="50%" font-family="sans-serif">no data</text></svg>`)
		return sb.String()
	}
	//lint:ignore floateq degenerate-range guard: only bitwise equality divides the scale by zero
	if xmax == xmin {
		xmax = xmin + 1
	}
	//lint:ignore floateq degenerate-range guard, as above
	if ymax == ymin {
		ymax = ymin + 1
	}
	px := func(x float64) float64 { return margin + (x-xmin)/(xmax-xmin)*plotW }
	py := func(y float64) float64 { return h - margin - (y-ymin)/(ymax-ymin)*plotH }

	// Axes.
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#333"/>`, margin, h-margin, w-margin, h-margin)
	fmt.Fprintf(&sb, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#333"/>`, margin, margin, margin, h-margin)
	fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="11" font-family="sans-serif">%s</text>`, margin, h-margin+28, tick(xmin))
	fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="11" font-family="sans-serif" text-anchor="end">%s</text>`, w-margin, h-margin+28, tick(xmax))
	fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="11" font-family="sans-serif" text-anchor="end">%s</text>`, margin-6, h-margin, tick(ymin))
	fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="11" font-family="sans-serif" text-anchor="end">%s</text>`, margin-6, margin+4, tick(ymax))
	fmt.Fprintf(&sb, `<text x="%g" y="%g" font-size="12" font-family="sans-serif" text-anchor="middle">%s</text>`, margin+plotW/2, h-10, escape(xLabel))
	fmt.Fprintf(&sb, `<text x="14" y="%g" font-size="12" font-family="sans-serif" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`, margin+plotH/2, margin+plotH/2, escape(yLabel))

	for si, s := range series {
		color := palette[si%len(palette)]
		var pts []string
		prevY := math.NaN()
		for i := range s.X {
			if i >= len(s.Y) || !finite(s.X[i]) || !finite(s.Y[i]) {
				continue
			}
			x, y := px(s.X[i]), py(s.Y[i])
			if s.Step && !math.IsNaN(prevY) {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, prevY))
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
			prevY = y
		}
		if len(pts) == 0 {
			continue
		}
		fmt.Fprintf(&sb, `<polyline fill="none" stroke="%s" stroke-width="1.8" points="%s"/>`, color, strings.Join(pts, " "))
		// Legend entry.
		ly := 34 + 16*si
		fmt.Fprintf(&sb, `<rect x="%g" y="%d" width="12" height="3" fill="%s"/>`, w-margin-110, ly, color)
		fmt.Fprintf(&sb, `<text x="%g" y="%d" font-size="11" font-family="sans-serif">%s</text>`, w-margin-92, ly+5, escape(s.Name))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

// barSVG renders labeled horizontal bars.
func barSVG(title, unit string, width int, labels []string, values []float64) string {
	n := len(labels)
	if len(values) < n {
		n = len(values)
	}
	rowH := 26
	height := 40 + n*rowH + 10
	w := float64(width)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, width, height, width, height)
	fmt.Fprintf(&sb, `<text x="10" y="20" font-size="14" font-family="sans-serif">%s</text>`, escape(title))
	if n == 0 {
		sb.WriteString(`<text x="10" y="50" font-family="sans-serif">no data</text></svg>`)
		return sb.String()
	}
	maxVal := 0.0
	for i := 0; i < n; i++ {
		if values[i] > maxVal {
			maxVal = values[i]
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	labelW := 110.0
	barMax := w - labelW - 90
	for i := 0; i < n; i++ {
		y := 40 + i*rowH
		bw := values[i] / maxVal * barMax
		if bw < 0 {
			bw = 0
		}
		fmt.Fprintf(&sb, `<text x="%g" y="%d" font-size="12" font-family="sans-serif" text-anchor="end">%s</text>`, labelW-8, y+14, escape(labels[i]))
		fmt.Fprintf(&sb, `<rect x="%g" y="%d" width="%.1f" height="%d" fill="%s"/>`, labelW, y, bw, rowH-8, palette[i%len(palette)])
		fmt.Fprintf(&sb, `<text x="%g" y="%d" font-size="12" font-family="sans-serif">%s%s</text>`, labelW+bw+6, y+14, tick(values[i]), escape(unit))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func tick(v float64) string {
	a := math.Abs(v)
	switch {
	case a >= 1e6, (a > 0 && a < 1e-3):
		return fmt.Sprintf("%.2g", v)
	case a >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
