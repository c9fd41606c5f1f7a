package compare

import (
	"fmt"
	"html"
	"io"
	"strconv"
	"strings"
)

// HTML report: a single self-contained page in the soradash style —
// inline CSS, hand-rolled SVG panels, no external assets or scripts —
// rendered deterministically so the output can be golden-tested.

// svgCoord formats an SVG coordinate with fixed precision.
func svgCoord(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// polyline renders one series as an SVG polyline. xs/ys must be the
// same length; empty series render nothing.
func polyline(b *strings.Builder, xs, ys []float64, color string) {
	if len(xs) == 0 {
		return
	}
	b.WriteString(`<polyline fill="none" stroke="` + color + `" stroke-width="1.5" points="`)
	for i := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(svgCoord(xs[i]))
		b.WriteByte(',')
		b.WriteString(svgCoord(ys[i]))
	}
	b.WriteString(`"/>`)
	b.WriteByte('\n')
}

// p99Panel draws both sides' per-window p99 series on one time axis.
func p99Panel(r *Result) string {
	const w, h, pad = 640.0, 180.0, 30.0
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="%g" height="%g" role="img">`, w, h, w, h)
	b.WriteByte('\n')
	if len(r.Aligned) == 0 {
		b.WriteString(`<text x="20" y="40" class="lbl">no aligned windows</text>` + "\n</svg>\n")
		return b.String()
	}
	minT, maxT := r.Aligned[0].TUs, r.Aligned[len(r.Aligned)-1].TUs
	maxY := 1e-9
	for _, wd := range r.Aligned {
		if wd.P99A > maxY {
			maxY = wd.P99A
		}
		if wd.P99B > maxY {
			maxY = wd.P99B
		}
	}
	x := func(tUs int64) float64 {
		if maxT == minT {
			return pad
		}
		return pad + (w-2*pad)*float64(tUs-minT)/float64(maxT-minT)
	}
	y := func(v float64) float64 { return h - pad - (h-2*pad)*v/maxY }
	var xsA, ysA, xsB, ysB []float64
	for _, wd := range r.Aligned {
		xsA = append(xsA, x(wd.TUs))
		ysA = append(ysA, y(wd.P99A))
		xsB = append(xsB, x(wd.TUs))
		ysB = append(ysB, y(wd.P99B))
	}
	fmt.Fprintf(&b, `<line x1="%g" y1="%s" x2="%g" y2="%s" stroke="#ccc"/>`,
		pad, svgCoord(h-pad), w-pad, svgCoord(h-pad))
	b.WriteByte('\n')
	polyline(&b, xsA, ysA, "#1f77b4")
	polyline(&b, xsB, ysB, "#d62728")
	fmt.Fprintf(&b, `<text x="%g" y="14" class="lbl">p99 per window — A %s (blue) vs B %s (red), max %sms</text>`,
		pad, html.EscapeString(r.LabelA), html.EscapeString(r.LabelB), ms(maxY))
	b.WriteString("\n</svg>\n")
	return b.String()
}

// goodputPanel draws the good/degraded/violated split as two stacked
// horizontal bars.
func goodputPanel(r *Result) string {
	const w, h, barH = 640.0, 90.0, 22.0
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="%g" height="%g" role="img">`, w, h, w, h)
	b.WriteByte('\n')
	bar := func(yOff float64, label string, g GoodputSplit) {
		x := 80.0
		total := w - x - 10
		for _, seg := range []struct {
			frac  float64
			color string
		}{{g.GoodFrac, "#2ca02c"}, {g.DegradedFrac, "#ff7f0e"}, {g.ViolatedFrac, "#d62728"}} {
			sw := total * seg.frac
			if sw > 0 {
				fmt.Fprintf(&b, `<rect x="%s" y="%s" width="%s" height="%g" fill="%s"/>`,
					svgCoord(x), svgCoord(yOff), svgCoord(sw), barH, seg.color)
				b.WriteByte('\n')
			}
			x += sw //fma:allow report-only: bar geometry of the HTML report, never fed back into a run
		}
		fmt.Fprintf(&b, `<text x="4" y="%s" class="lbl">%s %s</text>`,
			svgCoord(yOff+barH-6), html.EscapeString(label), pct(g.GoodFrac))
		b.WriteByte('\n')
	}
	bar(10, "A", r.GoodputA)
	bar(10+barH+16, "B", r.GoodputB)
	b.WriteString("</svg>\n")
	return b.String()
}

// WriteHTML renders the full report as one self-contained page: the
// SVG panels followed by the text report in a <pre> block.
func WriteHTML(w io.Writer, r *Result) error {
	var txt strings.Builder
	if err := WriteText(&txt, r); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>soradiff: %s vs %s</title>\n",
		html.EscapeString(r.LabelA), html.EscapeString(r.LabelB))
	b.WriteString(`<style>
body { font: 14px/1.4 system-ui, sans-serif; margin: 24px; color: #222; }
h1 { font-size: 18px; }
.lbl { font: 11px sans-serif; fill: #444; }
pre { background: #f6f6f6; padding: 12px; overflow-x: auto; }
svg { display: block; margin: 12px 0; }
</style>
</head><body>
`)
	fmt.Fprintf(&b, "<h1>soradiff: %s (A) vs %s (B)</h1>\n",
		html.EscapeString(r.LabelA), html.EscapeString(r.LabelB))
	b.WriteString(p99Panel(r))
	b.WriteString(goodputPanel(r))
	b.WriteString("<pre>")
	b.WriteString(html.EscapeString(txt.String()))
	b.WriteString("</pre>\n</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
