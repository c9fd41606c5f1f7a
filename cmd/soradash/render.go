package main

import (
	"fmt"
	"html"
	"strconv"
	"strings"

	"sora/internal/compare"
)

// The renderer. Hand-rolled SVG with fixed two-decimal coordinates and
// explicit iteration order everywhere, so the same input always renders
// the same bytes (golden-tested).

const (
	chartW = 360.0
	chartH = 130.0
	padL   = 44.0
	padR   = 8.0
	padT   = 8.0
	padB   = 18.0
)

// palette for per-service lines, cycled in service order.
var palette = []string{
	"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
	"#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
}

// scales are the global axis ranges shared by every panel.
type scales struct {
	maxT    float64 // seconds
	maxLat  float64 // ms (p99 ceiling across cluster + services)
	maxRate float64 // req/s (stacked goodput ceiling)
}

func computeScales(files [][]*panel) scales {
	var s scales
	for _, panels := range files {
		for _, u := range panels {
			if u.maxT > s.maxT {
				s.maxT = u.maxT
			}
			for _, r := range u.Cluster {
				if r.P99 > s.maxLat {
					s.maxLat = r.P99
				}
				if r.WinS > 0 {
					rate := float64(r.Good+r.Degr+r.Viol) / r.WinS
					if rate > s.maxRate {
						s.maxRate = rate
					}
				}
			}
			for _, svc := range u.Services {
				for _, r := range u.SvcRows[svc] {
					if r.P99 > s.maxLat {
						s.maxLat = r.P99
					}
				}
			}
		}
	}
	if s.maxT <= 0 {
		s.maxT = 1
	}
	if s.maxLat <= 0 {
		s.maxLat = 1
	}
	if s.maxRate <= 0 {
		s.maxRate = 1
	}
	return s
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// axis value labels: compact, deterministic.
func fAxis(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

func (s scales) x(t float64) float64 {
	return padL + t/s.maxT*(chartW-padL-padR) //fma:allow report-only: SVG geometry of the dashboard, never fed back into a run
}

func yOf(v, max float64) float64 {
	if v < 0 {
		v = 0
	}
	if v > max {
		v = max
	}
	return padT + (1-v/max)*(chartH-padT-padB) //fma:allow report-only: SVG geometry of the dashboard, never fed back into a run
}

// chart accumulates SVG body elements for one panel chart.
type chart struct {
	b     strings.Builder
	sc    scales
	yMax  float64
	yUnit string
}

func newChart(sc scales, yMax float64, yUnit string) *chart {
	return &chart{sc: sc, yMax: yMax, yUnit: yUnit}
}

func (c *chart) rect(x0, x1, y0, y1 float64, fill, tip string) {
	fmt.Fprintf(&c.b, `<rect x="%s" y="%s" width="%s" height="%s" fill="%s">`,
		f2(x0), f2(y0), f2(x1-x0), f2(y1-y0), fill)
	if tip != "" {
		fmt.Fprintf(&c.b, "<title>%s</title>", html.EscapeString(tip))
	}
	c.b.WriteString("</rect>\n")
}

func (c *chart) polygon(pts []point, fill string) {
	if len(pts) == 0 {
		return
	}
	c.b.WriteString(`<polygon points="`)
	for i, p := range pts {
		if i > 0 {
			c.b.WriteByte(' ')
		}
		c.b.WriteString(f2(p.x) + "," + f2(p.y))
	}
	fmt.Fprintf(&c.b, `" fill="%s"/>`+"\n", fill)
}

func (c *chart) polyline(pts []point, stroke string, width float64) {
	if len(pts) == 0 {
		return
	}
	c.b.WriteString(`<polyline points="`)
	for i, p := range pts {
		if i > 0 {
			c.b.WriteByte(' ')
		}
		c.b.WriteString(f2(p.x) + "," + f2(p.y))
	}
	fmt.Fprintf(&c.b, `" fill="none" stroke="%s" stroke-width="%s"/>`+"\n", stroke, f2(width))
}

func (c *chart) marker(t float64, tip string) {
	x := c.sc.x(t)
	fmt.Fprintf(&c.b, `<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#555" stroke-width="1" stroke-dasharray="2,2"><title>%s</title></line>`+"\n",
		f2(x), f2(padT), f2(x), f2(chartH-padB), html.EscapeString(tip))
}

type point struct{ x, y float64 }

// finish wraps the accumulated body in the SVG frame: plot border, y
// ticks (0, mid, max) and x extent labels.
func (c *chart) finish(title string) string {
	var out strings.Builder
	fmt.Fprintf(&out, `<figure><figcaption>%s</figcaption>`+"\n", html.EscapeString(title))
	fmt.Fprintf(&out, `<svg viewBox="0 0 %s %s" width="%s" height="%s" xmlns="http://www.w3.org/2000/svg">`+"\n",
		f2(chartW), f2(chartH), f2(chartW), f2(chartH))
	// plot area frame
	fmt.Fprintf(&out, `<rect x="%s" y="%s" width="%s" height="%s" fill="#fcfcfc" stroke="#ccc"/>`+"\n",
		f2(padL), f2(padT), f2(chartW-padL-padR), f2(chartH-padT-padB))
	out.WriteString(c.b.String())
	// y ticks
	for _, frac := range []float64{0, 0.5, 1} {
		v := frac * c.yMax
		y := yOf(v, c.yMax)
		fmt.Fprintf(&out, `<text x="%s" y="%s" font-size="7" text-anchor="end" fill="#333">%s</text>`+"\n",
			f2(padL-3), f2(y+2), html.EscapeString(fAxis(v)+c.yUnit))
	}
	// x extent
	fmt.Fprintf(&out, `<text x="%s" y="%s" font-size="7" text-anchor="start" fill="#333">0s</text>`+"\n",
		f2(padL), f2(chartH-padB+9))
	fmt.Fprintf(&out, `<text x="%s" y="%s" font-size="7" text-anchor="end" fill="#333">%ss</text>`+"\n",
		f2(chartW-padR), f2(chartH-padB+9), html.EscapeString(fAxis(c.sc.maxT)))
	out.WriteString("</svg></figure>\n")
	return out.String()
}

// overlays draws the shared annotations (fault windows, then decision
// markers) onto a chart.
func overlays(c *chart, u *panel) {
	for _, fw := range u.faults {
		tip := fmt.Sprintf("fault %s on %s: %ss - %ss", fw.kind, fw.target, fAxis(fw.t0), fAxis(fw.t1))
		c.rect(c.sc.x(fw.t0), c.sc.x(fw.t1), padT, chartH-padB, "rgba(214,39,40,0.10)", tip)
	}
	for _, m := range u.marks {
		c.marker(m.t, m.label)
	}
}

// latencyChart: p50-p99 band plus the three quantile lines.
func latencyChart(sc scales, u *panel) string {
	c := newChart(sc, sc.maxLat, "ms")
	overlays(c, u)
	var band []point
	for _, r := range u.Cluster {
		band = append(band, point{sc.x(sec(r.TUs)), yOf(r.P99, sc.maxLat)})
	}
	for i := len(u.Cluster) - 1; i >= 0; i-- {
		r := u.Cluster[i]
		band = append(band, point{sc.x(sec(r.TUs)), yOf(r.P50, sc.maxLat)})
	}
	c.polygon(band, "rgba(31,119,180,0.15)")
	for _, q := range []struct {
		pick  func(compare.ClusterWindow) float64
		color string
		width float64
	}{
		{func(r compare.ClusterWindow) float64 { return r.P50 }, "#1f77b4", 1},
		{func(r compare.ClusterWindow) float64 { return r.P95 }, "#5a9bd4", 1},
		{func(r compare.ClusterWindow) float64 { return r.P99 }, "#08306b", 1.5},
	} {
		var pts []point
		for _, r := range u.Cluster {
			pts = append(pts, point{sc.x(sec(r.TUs)), yOf(q.pick(r), sc.maxLat)})
		}
		c.polyline(pts, q.color, q.width)
	}
	return c.finish("e2e latency p50 / p95 / p99")
}

// goodputChart: stacked per-window rates — good (green) at the bottom,
// degraded (orange), violated (red) on top. Step-shaped: each window's
// level spans [t-win, t].
func goodputChart(sc scales, u *panel) string {
	c := newChart(sc, sc.maxRate, "/s")
	overlays(c, u)
	layer := func(level func(compare.ClusterWindow) int64, fill string) {
		var pts []point
		base := yOf(0, sc.maxRate)
		first, last := 0.0, 0.0
		for _, r := range u.Cluster {
			if r.WinS <= 0 {
				continue
			}
			t := sec(r.TUs)
			y := yOf(float64(level(r))/r.WinS, sc.maxRate)
			x0, x1 := sc.x(t-r.WinS), sc.x(t)
			if len(pts) == 0 {
				first = x0
			}
			pts = append(pts, point{x0, y}, point{x1, y})
			last = x1
		}
		if len(pts) == 0 {
			return
		}
		pts = append(pts, point{last, base}, point{first, base})
		c.polygon(pts, fill)
	}
	// Topmost stack level first so lower layers paint over it.
	layer(func(r compare.ClusterWindow) int64 { return r.Good + r.Degr + r.Viol }, "#d62728")
	layer(func(r compare.ClusterWindow) int64 { return r.Good + r.Degr }, "#ff9d45")
	layer(func(r compare.ClusterWindow) int64 { return r.Good }, "#74c476")
	return c.finish("goodput split: good / degraded / violated (req/s)")
}

// serviceChart: one p99 line per service.
func serviceChart(sc scales, u *panel) string {
	c := newChart(sc, sc.maxLat, "ms")
	overlays(c, u)
	for i, svc := range u.Services {
		var pts []point
		for _, r := range u.SvcRows[svc] {
			pts = append(pts, point{sc.x(sec(r.TUs)), yOf(r.P99, sc.maxLat)})
		}
		c.polyline(pts, palette[i%len(palette)], 1)
	}
	return c.finish("per-service p99")
}

// legend renders the service color key under a panel.
func legend(u *panel) string {
	var b strings.Builder
	b.WriteString(`<div class="legend">`)
	for i, svc := range u.Services {
		fmt.Fprintf(&b, `<span><i style="background:%s"></i>%s</span>`,
			palette[i%len(palette)], html.EscapeString(svc))
	}
	b.WriteString("</div>\n")
	return b.String()
}

func render(title string, runs []*compare.Run) string {
	files := make([][]*panel, len(runs))
	for i, r := range runs {
		for _, u := range r.Units {
			files[i] = append(files[i], newPanel(u))
		}
	}
	sc := computeScales(files)
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", html.EscapeString(title))
	b.WriteString(`<style>
body{font-family:system-ui,sans-serif;margin:16px;background:#fff;color:#111}
h1{font-size:20px}h2{font-size:16px;border-bottom:1px solid #ddd;padding-bottom:4px}
.units{display:flex;flex-wrap:wrap;gap:12px}
.unit{border:1px solid #ddd;border-radius:6px;padding:8px}
.unit h3{font-size:12px;margin:0 0 4px 0;font-family:monospace}
figure{margin:4px 0}figcaption{font-size:10px;color:#555}
.legend{font-size:9px}.legend span{margin-right:8px}
.legend i{display:inline-block;width:8px;height:8px;margin-right:3px}
.note{font-size:11px;color:#666}
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>%s</h1>\n", html.EscapeString(title))
	b.WriteString(`<p class="note">Shaded red spans are fault windows; dashed lines are controller/autoscaler annotations (hover for detail). All panels share axis scales.</p>` + "\n")
	for i, r := range runs {
		fmt.Fprintf(&b, "<h2>%s</h2>\n<div class=\"units\">\n", html.EscapeString(displayName(r.Path)))
		for _, u := range files[i] {
			fmt.Fprintf(&b, "<div class=\"unit\"><h3>%s</h3>\n", html.EscapeString(u.Path))
			if len(u.Cluster) == 0 && len(u.Services) == 0 {
				b.WriteString("<p class=\"note\">no timeline rows</p>\n")
			} else {
				b.WriteString(latencyChart(sc, u))
				b.WriteString(goodputChart(sc, u))
				b.WriteString(serviceChart(sc, u))
				b.WriteString(legend(u))
			}
			b.WriteString("</div>\n")
		}
		b.WriteString("</div>\n")
	}
	b.WriteString("</body></html>\n")
	return b.String()
}
