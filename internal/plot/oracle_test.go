package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// This file keeps the fmt-based renderers that AppendSVG replaced, as
// oracles: the property tests in svgappend_test.go require byte-equal
// documents from both. Only the axis ticks, bounds and tick indexes are
// shared with the production path; scale normalization, tick labels,
// colours and escaping are the originals.

// oracleChartSVG is Chart.SVG as first written, on fmt: the reference
// AppendSVG must match byte for byte.
func oracleChartSVG(c *Chart, w io.Writer) error {
	if err := c.Validate(); err != nil {
		return err
	}
	xmin, xmax, ymin, ymax, err := c.bounds()
	if err != nil {
		return err
	}
	width, height := c.Width, c.Height
	if width == 0 {
		width = 720
	}
	if height == 0 {
		height = 440
	}
	const (
		marginL = 64
		marginR = 16
		marginT = 36
		marginB = 48
	)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	sx := oracleScale{min: xmin, max: xmax, log: c.LogX}
	sy := oracleScale{min: ymin, max: ymax, log: c.LogY}
	px := func(x float64) float64 { return marginL + sx.norm(x)*plotW }
	py := func(y float64) float64 { return float64(marginT) + (1-sy.norm(y))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
			marginL, oracleEscape(c.Title))
	}

	// Grid and ticks.
	for _, t := range newScale(xmin, xmax, c.LogX).ticks(6) {
		x := px(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#e0e0e0" stroke-width="1"/>`+"\n",
			x, marginT, x, float64(marginT)+plotH)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, float64(marginT)+plotH+16, oracleEscape(oracleFormatTick(t)))
	}
	for _, t := range newScale(ymin, ymax, c.LogY).ticks(6) {
		y := py(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#e0e0e0" stroke-width="1"/>`+"\n",
			marginL, y, float64(marginL)+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, oracleEscape(oracleFormatTick(t)))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1.5"/>`+"\n",
		marginL, float64(marginT)+plotH, float64(marginL)+plotW, float64(marginT)+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%.1f" stroke="black" stroke-width="1.5"/>`+"\n",
		marginL, marginT, marginL, float64(marginT)+plotH)
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
			float64(marginL)+plotW/2, height-10, oracleEscape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
			float64(marginT)+plotH/2, float64(marginT)+plotH/2, oracleEscape(c.YLabel))
	}

	// Ceilings.
	for _, cl := range c.Ceilings {
		y := py(cl.Y)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#666" stroke-width="1.5" stroke-dasharray="6 3"/>`+"\n",
			px(cl.FromX), y, float64(marginL)+plotW, y)
		if cl.Label != "" {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" fill="#444">%s</text>`+"\n",
				px(cl.FromX)+4, y-4, oracleEscape(cl.Label))
		}
	}

	// Series.
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		var pts []string
		for k := range s.X {
			x, y := s.X[k], s.Y[k]
			if c.LogX && x <= 0 || c.LogY && y <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(x), py(y)))
		}
		dash := ""
		if s.Dashed {
			dash = ` stroke-dasharray="8 4"`
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"%s/>`+"\n",
			strings.Join(pts, " "), color, dash)
	}

	// Markers.
	for _, m := range c.Markers {
		x, y := px(m.X), py(m.Y)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="#d62728" stroke="white" stroke-width="1"/>`+"\n", x, y)
		if m.Label != "" {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11">%s</text>`+"\n",
				x+6, y-6, oracleEscape(m.Label))
		}
	}

	// Legend.
	ly := marginT + 8
	for i, s := range c.Series {
		if s.Name == "" {
			continue
		}
		color := palette[i%len(palette)]
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-width="2"/>`+"\n",
			float64(marginL)+plotW-150, ly, float64(marginL)+plotW-130, ly, color)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			float64(marginL)+plotW-124, ly+4, oracleEscape(s.Name))
		ly += 16
	}

	b.WriteString("</svg>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// oracleHeatmapSVG is Heatmap.SVG as first written, on fmt: the
// reference AppendSVG must match byte for byte.
func oracleHeatmapSVG(h *Heatmap, w io.Writer) error {
	if err := h.Validate(); err != nil {
		return err
	}
	zmin, zmax, ok := h.zRange()
	if !ok {
		return fmt.Errorf("plot: heatmap %q has no finite values", h.Title)
	}
	width, height := h.Width, h.Height
	if width == 0 {
		width = 720
	}
	if height == 0 {
		height = 440
	}
	const (
		marginL = 64
		marginR = 86 // room for the color bar
		marginT = 36
		marginB = 48
	)
	nx, ny := len(h.Xs), len(h.Ys)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	cellW := plotW / float64(nx)
	cellH := plotH / float64(ny)

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if h.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
			marginL, oracleEscape(h.Title))
	}

	// Cells: row 0 (lowest y value) sits at the bottom.
	for yi, row := range h.Values {
		y := float64(marginT) + plotH - float64(yi+1)*cellH
		for xi, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // gap
			}
			t := (v - zmin) / (zmax - zmin)
			// +0.5 overlap hides hairline seams between cells.
			fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s"/>`+"\n",
				float64(marginL)+float64(xi)*cellW, y, cellW+0.5, cellH+0.5, oracleRampColor(t))
		}
	}

	// Axes and tick labels (cell-center positions on the index grid).
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1.5"/>`+"\n",
		marginL, float64(marginT)+plotH, float64(marginL)+plotW, float64(marginT)+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%.1f" stroke="black" stroke-width="1.5"/>`+"\n",
		marginL, marginT, marginL, float64(marginT)+plotH)
	for _, xi := range axisTickIndexes(nil, nx) {
		x := float64(marginL) + (float64(xi)+0.5)*cellW
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, float64(marginT)+plotH+16, oracleEscape(oracleFormatTick(h.Xs[xi])))
	}
	for _, yi := range axisTickIndexes(nil, ny) {
		y := float64(marginT) + plotH - (float64(yi)+0.5)*cellH
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, oracleEscape(oracleFormatTick(h.Ys[yi])))
	}
	if h.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
			float64(marginL)+plotW/2, height-10, oracleEscape(h.XLabel))
	}
	if h.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
			float64(marginT)+plotH/2, float64(marginT)+plotH/2, oracleEscape(h.YLabel))
	}

	// Color bar: a vertical gradient strip with min/mid/max labels.
	const barSteps = 32
	barX := float64(width - marginR + 18)
	barW := 14.0
	stepH := plotH / barSteps
	for i := 0; i < barSteps; i++ {
		t := (float64(i) + 0.5) / barSteps
		y := float64(marginT) + plotH - float64(i+1)*stepH
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.2f" width="%.1f" height="%.2f" fill="%s"/>`+"\n",
			barX, y, barW, stepH+0.5, oracleRampColor(t))
	}
	fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%.1f" fill="none" stroke="black" stroke-width="0.5"/>`+"\n",
		barX, marginT, barW, plotH)
	for _, tick := range []struct {
		t float64
		v float64
	}{{0, zmin}, {0.5, (zmin + zmax) / 2}, {1, zmax}} {
		y := float64(marginT) + plotH - tick.t*plotH
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10">%s</text>`+"\n",
			barX+barW+4, y+3, oracleEscape(oracleFormatTick(tick.v)))
	}
	if h.ZLabel != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			barX+barW/2, marginT-8, oracleEscape(h.ZLabel))
	}

	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// oracleRampColor is the fmt-based rampColor appendRampColor replaced.
func oracleRampColor(t float64) string {
	if math.IsNaN(t) {
		return "#ffffff"
	}
	t = math.Max(0, math.Min(1, t))
	seg := t * float64(len(rampStops)-1)
	i := int(seg)
	if i >= len(rampStops)-1 {
		i = len(rampStops) - 2
	}
	f := seg - float64(i)
	a, b := rampStops[i], rampStops[i+1]
	return fmt.Sprintf("#%02x%02x%02x",
		int(a[0]+(b[0]-a[0])*f+0.5),
		int(a[1]+(b[1]-a[1])*f+0.5),
		int(a[2]+(b[2]-a[2])*f+0.5))
}

// oracleScale is scale as first written: a log axis takes three
// logarithms per point.
type oracleScale struct {
	min, max float64
	log      bool
}

func (s oracleScale) norm(v float64) float64 {
	if s.log {
		if v <= 0 {
			return 0
		}
		return (math.Log10(v) - math.Log10(s.min)) / (math.Log10(s.max) - math.Log10(s.min))
	}
	return (v - s.min) / (s.max - s.min)
}

// oracleFormatTick is formatTick as first written, on fmt.
func oracleFormatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.0e", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		s := fmt.Sprintf("%.1f", v)
		if s[len(s)-1] == '0' {
			return fmt.Sprintf("%.0f", v)
		}
		return s
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

var oracleEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func oracleEscape(s string) string { return oracleEscaper.Replace(s) }
