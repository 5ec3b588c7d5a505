package plot

import (
	"io"
	"strconv"
)

// palette cycles through distinguishable series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
	"#8c564b", "#17becf", "#7f7f7f",
}

// Margins shared by the chart and the heatmap; the right margin
// differs (the heatmap keeps room for its color bar).
const (
	marginL = 64
	marginT = 36
	marginB = 48
)

// SVG renders the chart as a standalone SVG document.
func (c *Chart) SVG(w io.Writer) error { return writeSVG(w, c) }

// AppendSVG appends the chart as a standalone SVG document to dst. It
// appends nothing when it returns an error.
func (c *Chart) AppendSVG(dst []byte) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return dst, err
	}
	xmin, xmax, ymin, ymax, err := c.bounds()
	if err != nil {
		return dst, err
	}
	width, height := c.Width, c.Height
	if width == 0 {
		width = 720
	}
	if height == 0 {
		height = 440
	}
	const marginR = 16
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	sx := newScale(xmin, xmax, c.LogX)
	sy := newScale(ymin, ymax, c.LogY)
	px := func(x float64) float64 { return marginL + sx.norm(x)*plotW }
	py := func(y float64) float64 { return float64(marginT) + (1-sy.norm(y))*plotH }
	xticks, yticks := sx.ticks(6), sy.ticks(6)

	// Size the document from its element counts: ~12 bytes per
	// polyline point, a few hundred per other element, plus the text.
	size := 1024 + 256*(len(xticks)+len(yticks)+len(c.Series)+len(c.Markers)+len(c.Ceilings)) +
		2*(len(c.Title)+len(c.XLabel)+len(c.YLabel))
	for _, s := range c.Series {
		size += 12 * len(s.X)
	}
	b := grow(dst, size)

	b = appendHeader(b, width, height, c.Title)

	// Grid and ticks.
	for _, t := range xticks {
		x := px(t)
		b = append(b, "<line"...)
		b = attrF(b, "x1", x, 1)
		b = attrD(b, "y1", marginT)
		b = attrF(b, "x2", x, 1)
		b = attrF(b, "y2", float64(marginT)+plotH, 1)
		b = append(b, ` stroke="#e0e0e0" stroke-width="1"/>`+"\n"...)
		b = appendXTick(b, x, plotH, t)
	}
	for _, t := range yticks {
		y := py(t)
		b = append(b, "<line"...)
		b = attrD(b, "x1", marginL)
		b = attrF(b, "y1", y, 1)
		b = attrF(b, "x2", float64(marginL)+plotW, 1)
		b = attrF(b, "y2", y, 1)
		b = append(b, ` stroke="#e0e0e0" stroke-width="1"/>`+"\n"...)
		b = appendYTick(b, y, t)
	}
	b = appendAxisLines(b, plotW, plotH)
	b = appendAxisLabels(b, plotW, plotH, height, c.XLabel, c.YLabel)

	// Ceilings.
	for _, cl := range c.Ceilings {
		y := py(cl.Y)
		b = append(b, "<line"...)
		b = attrF(b, "x1", px(cl.FromX), 1)
		b = attrF(b, "y1", y, 1)
		b = attrF(b, "x2", float64(marginL)+plotW, 1)
		b = attrF(b, "y2", y, 1)
		b = append(b, ` stroke="#666" stroke-width="1.5" stroke-dasharray="6 3"/>`+"\n"...)
		if cl.Label != "" {
			b = append(b, "<text"...)
			b = attrF(b, "x", px(cl.FromX)+4, 1)
			b = attrF(b, "y", y-4, 1)
			b = append(b, ` font-family="sans-serif" font-size="11" fill="#444">`...)
			b = appendTextEnd(b, cl.Label)
		}
	}

	// Series.
	for i, s := range c.Series {
		b = append(b, `<polyline points="`...)
		sep := false
		for k := range s.X {
			x, y := s.X[k], s.Y[k]
			if c.LogX && x <= 0 || c.LogY && y <= 0 {
				continue
			}
			if sep {
				b = append(b, ' ')
			}
			sep = true
			b = appendFixed(b, px(x), 1)
			b = append(b, ',')
			b = appendFixed(b, py(y), 1)
		}
		b = append(b, `" fill="none" stroke="`...)
		b = append(b, palette[i%len(palette)]...)
		b = append(b, `" stroke-width="2"`...)
		if s.Dashed {
			b = append(b, ` stroke-dasharray="8 4"`...)
		}
		b = append(b, "/>\n"...)
	}

	// Markers.
	for _, m := range c.Markers {
		x, y := px(m.X), py(m.Y)
		b = append(b, "<circle"...)
		b = attrF(b, "cx", x, 1)
		b = attrF(b, "cy", y, 1)
		b = append(b, ` r="4" fill="#d62728" stroke="white" stroke-width="1"/>`+"\n"...)
		if m.Label != "" {
			b = append(b, "<text"...)
			b = attrF(b, "x", x+6, 1)
			b = attrF(b, "y", y-6, 1)
			b = append(b, ` font-family="sans-serif" font-size="11">`...)
			b = appendTextEnd(b, m.Label)
		}
	}

	// Legend.
	ly := marginT + 8
	for i, s := range c.Series {
		if s.Name == "" {
			continue
		}
		b = append(b, "<line"...)
		b = attrF(b, "x1", float64(marginL)+plotW-150, 1)
		b = attrD(b, "y1", ly)
		b = attrF(b, "x2", float64(marginL)+plotW-130, 1)
		b = attrD(b, "y2", ly)
		b = append(b, ` stroke="`...)
		b = append(b, palette[i%len(palette)]...)
		b = append(b, `" stroke-width="2"/>`+"\n"...)
		b = append(b, "<text"...)
		b = attrF(b, "x", float64(marginL)+plotW-124, 1)
		b = attrD(b, "y", ly+4)
		b = append(b, ` font-family="sans-serif" font-size="11">`...)
		b = appendTextEnd(b, s.Name)
		ly += 16
	}

	return append(b, "</svg>\n"...), nil
}

// writeSVG renders fig to memory and writes the finished document, so
// a render error leaves w untouched.
func writeSVG(w io.Writer, fig interface{ AppendSVG([]byte) ([]byte, error) }) error {
	b, err := fig.AppendSVG(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// grow returns dst with room for n more bytes. It allocates once; the
// race detector's instrumentation turns slices.Grow into two.
func grow(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	b := make([]byte, len(dst), len(dst)+n)
	copy(b, dst)
	return b
}

// attrF appends ` name="v"` with v at prec decimals (%.<prec>f).
func attrF(dst []byte, name string, v float64, prec int) []byte {
	dst = append(dst, ' ')
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = appendFixed(dst, v, prec)
	return append(dst, '"')
}

// attrD appends ` name="v"` for an integer v (%d).
func attrD(dst []byte, name string, v int) []byte {
	dst = append(dst, ' ')
	dst = append(dst, name...)
	dst = append(dst, '=', '"')
	dst = strconv.AppendInt(dst, int64(v), 10)
	return append(dst, '"')
}

// appendTextEnd appends escaped text content and closes its element.
func appendTextEnd(dst []byte, s string) []byte {
	dst = appendEscaped(dst, s)
	return append(dst, "</text>\n"...)
}

// appendHeader opens the document: the root element, a white
// background and, when set, the title.
func appendHeader(dst []byte, width, height int, title string) []byte {
	dst = append(dst, `<svg xmlns="http://www.w3.org/2000/svg"`...)
	dst = attrD(dst, "width", width)
	dst = attrD(dst, "height", height)
	dst = append(dst, ` viewBox="0 0 `...)
	dst = strconv.AppendInt(dst, int64(width), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(height), 10)
	dst = append(dst, "\">\n"...)
	dst = append(dst, `<rect width="100%" height="100%" fill="white"/>`+"\n"...)
	if title != "" {
		dst = append(dst, "<text"...)
		dst = attrD(dst, "x", marginL)
		dst = append(dst, ` y="22" font-family="sans-serif" font-size="15" font-weight="bold">`...)
		dst = appendTextEnd(dst, title)
	}
	return dst
}

// appendXTick appends an x-axis tick label for value v at x, below a
// plot area plotH tall.
func appendXTick(dst []byte, x, plotH, v float64) []byte {
	dst = append(dst, "<text"...)
	dst = attrF(dst, "x", x, 1)
	dst = attrF(dst, "y", float64(marginT)+plotH+16, 1)
	dst = append(dst, ` font-family="sans-serif" font-size="11" text-anchor="middle">`...)
	dst = appendTick(dst, v)
	return append(dst, "</text>\n"...)
}

// appendYTick appends a y-axis tick label for value v at height y.
func appendYTick(dst []byte, y, v float64) []byte {
	dst = append(dst, "<text"...)
	dst = attrD(dst, "x", marginL-6)
	dst = attrF(dst, "y", y+4, 1)
	dst = append(dst, ` font-family="sans-serif" font-size="11" text-anchor="end">`...)
	dst = appendTick(dst, v)
	return append(dst, "</text>\n"...)
}

// appendAxisLines appends the x and y axes of a plot area plotW×plotH.
func appendAxisLines(dst []byte, plotW, plotH float64) []byte {
	dst = append(dst, "<line"...)
	dst = attrD(dst, "x1", marginL)
	dst = attrF(dst, "y1", float64(marginT)+plotH, 1)
	dst = attrF(dst, "x2", float64(marginL)+plotW, 1)
	dst = attrF(dst, "y2", float64(marginT)+plotH, 1)
	dst = append(dst, ` stroke="black" stroke-width="1.5"/>`+"\n"...)
	dst = append(dst, "<line"...)
	dst = attrD(dst, "x1", marginL)
	dst = attrD(dst, "y1", marginT)
	dst = attrD(dst, "x2", marginL)
	dst = attrF(dst, "y2", float64(marginT)+plotH, 1)
	return append(dst, ` stroke="black" stroke-width="1.5"/>`+"\n"...)
}

// appendAxisLabels appends the axis labels that are set, centred on a
// plot area plotW×plotH in a document height pixels tall.
func appendAxisLabels(dst []byte, plotW, plotH float64, height int, xlabel, ylabel string) []byte {
	if xlabel != "" {
		dst = append(dst, "<text"...)
		dst = attrF(dst, "x", float64(marginL)+plotW/2, 1)
		dst = attrD(dst, "y", height-10)
		dst = append(dst, ` font-family="sans-serif" font-size="12" text-anchor="middle">`...)
		dst = appendTextEnd(dst, xlabel)
	}
	if ylabel != "" {
		mid := float64(marginT) + plotH/2
		dst = append(dst, `<text x="14"`...)
		dst = attrF(dst, "y", mid, 1)
		dst = append(dst, ` font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 `...)
		dst = appendFixed(dst, mid, 1)
		dst = append(dst, ")\">"...)
		dst = appendTextEnd(dst, ylabel)
	}
	return dst
}
