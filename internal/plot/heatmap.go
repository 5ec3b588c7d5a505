package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Heatmap is a dense two-dimensional field rendering — the chart type
// behind dse.GridSweep characterization maps: Values[yi][xi] is the
// measured quantity at (Xs[xi], Ys[yi]). Like Chart it renders as SVG
// (the Skyline /grid.svg endpoint) and as ASCII (terminal studies).
type Heatmap struct {
	Title  string
	XLabel string
	YLabel string
	// ZLabel names the mapped quantity (color-bar caption).
	ZLabel string
	// Xs, Ys are the sample coordinates, ascending. Cells are drawn on
	// a uniform index grid, so unevenly spaced samples still render.
	Xs, Ys []float64
	// Values is indexed [len(Ys)][len(Xs)]. NaN cells render as gaps.
	Values [][]float64
	// Width, Height are the SVG pixel dimensions; zero means 720×440.
	Width, Height int
}

// Validate reports the first structural problem with the heatmap.
func (h *Heatmap) Validate() error {
	if len(h.Xs) == 0 || len(h.Ys) == 0 {
		return fmt.Errorf("plot: heatmap %q has an empty axis (%d×%d)", h.Title, len(h.Xs), len(h.Ys))
	}
	if len(h.Values) != len(h.Ys) {
		return fmt.Errorf("plot: heatmap %q has %d rows but %d y values", h.Title, len(h.Values), len(h.Ys))
	}
	for yi, row := range h.Values {
		if len(row) != len(h.Xs) {
			return fmt.Errorf("plot: heatmap %q row %d has %d cells but %d x values", h.Title, yi, len(row), len(h.Xs))
		}
	}
	return nil
}

// zRange scans the finite values; ok is false when every cell is NaN
// or infinite.
func (h *Heatmap) zRange() (zmin, zmax float64, ok bool) {
	zmin, zmax = math.Inf(1), math.Inf(-1)
	for _, row := range h.Values {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			zmin, zmax = math.Min(zmin, v), math.Max(zmax, v)
		}
	}
	if zmin > zmax {
		return 0, 0, false
	}
	if zmin == zmax {
		// A flat field still renders: center it in the ramp.
		zmin, zmax = zmin-1, zmax+1
	}
	return zmin, zmax, true
}

// rampStops is the sequential colormap (perceptually ordered dark →
// bright, viridis-like endpoints).
var rampStops = [][3]float64{
	{0x44, 0x01, 0x54}, // dark purple
	{0x3b, 0x52, 0x8b}, // blue
	{0x21, 0x91, 0x8c}, // teal
	{0x5e, 0xc9, 0x62}, // green
	{0xfd, 0xe7, 0x25}, // yellow
}

// appendRampColor appends the stop-gradient colour of t ∈ [0,1] as
// #rrggbb (t is clamped; NaN is white).
func appendRampColor(dst []byte, t float64) []byte {
	if math.IsNaN(t) {
		return append(dst, "#ffffff"...)
	}
	t = math.Max(0, math.Min(1, t))
	seg := t * float64(len(rampStops)-1)
	i := int(seg)
	if i >= len(rampStops)-1 {
		i = len(rampStops) - 2
	}
	f := seg - float64(i)
	a, b := rampStops[i], rampStops[i+1]
	dst = append(dst, '#')
	dst = appendHexByte(dst, int(a[0]+(b[0]-a[0])*f+0.5))
	dst = appendHexByte(dst, int(a[1]+(b[1]-a[1])*f+0.5))
	return appendHexByte(dst, int(a[2]+(b[2]-a[2])*f+0.5))
}

// axisTickIndexes appends up to 6 well-spread sample indexes of an
// axis of n samples to dst for labeling, always including the first
// and last.
func axisTickIndexes(dst []int, n int) []int {
	const target = 6
	if n <= target {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	for i := 0; i < target; i++ {
		dst = append(dst, i*(n-1)/(target-1))
	}
	return dst
}

// SVG renders the heatmap as a standalone SVG document with a color
// bar on the right.
func (h *Heatmap) SVG(w io.Writer) error { return writeSVG(w, h) }

// AppendSVG appends the heatmap as a standalone SVG document with a
// color bar on the right to dst. It appends nothing when it returns an
// error.
func (h *Heatmap) AppendSVG(dst []byte) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return dst, err
	}
	zmin, zmax, ok := h.zRange()
	if !ok {
		return dst, fmt.Errorf("plot: heatmap %q has no finite values", h.Title)
	}
	width, height := h.Width, h.Height
	if width == 0 {
		width = 720
	}
	if height == 0 {
		height = 440
	}
	const marginR = 86 // room for the color bar
	nx, ny := len(h.Xs), len(h.Ys)
	plotW := float64(width - marginL - marginR)
	plotH := float64(height - marginT - marginB)
	cellW := plotW / float64(nx)
	cellH := plotH / float64(ny)
	const barSteps = 32

	// Size the document from its element counts: ~80 bytes per cell
	// and color-bar step, a few hundred per other element, plus text.
	size := 2048 + 80*(nx*ny+barSteps) +
		2*(len(h.Title)+len(h.XLabel)+len(h.YLabel)+len(h.ZLabel))
	b := grow(dst, size)

	b = appendHeader(b, width, height, h.Title)

	// Cells: row 0 (lowest y value) sits at the bottom.
	for yi, row := range h.Values {
		y := float64(marginT) + plotH - float64(yi+1)*cellH
		for xi, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // gap
			}
			t := (v - zmin) / (zmax - zmin)
			// +0.5 overlap hides hairline seams between cells.
			b = append(b, "<rect"...)
			b = attrF(b, "x", float64(marginL)+float64(xi)*cellW, 2)
			b = attrF(b, "y", y, 2)
			b = attrF(b, "width", cellW+0.5, 2)
			b = attrF(b, "height", cellH+0.5, 2)
			b = appendFill(b, t)
		}
	}

	// Axes and tick labels (cell-center positions on the index grid).
	b = appendAxisLines(b, plotW, plotH)
	var idx [6]int
	for _, xi := range axisTickIndexes(idx[:0], nx) {
		b = appendXTick(b, float64(marginL)+(float64(xi)+0.5)*cellW, plotH, h.Xs[xi])
	}
	for _, yi := range axisTickIndexes(idx[:0], ny) {
		b = appendYTick(b, float64(marginT)+plotH-(float64(yi)+0.5)*cellH, h.Ys[yi])
	}
	b = appendAxisLabels(b, plotW, plotH, height, h.XLabel, h.YLabel)

	// Color bar: a vertical gradient strip with min/mid/max labels.
	barX := float64(width - marginR + 18)
	barW := 14.0
	stepH := plotH / barSteps
	for i := 0; i < barSteps; i++ {
		t := (float64(i) + 0.5) / barSteps
		y := float64(marginT) + plotH - float64(i+1)*stepH
		b = append(b, "<rect"...)
		b = attrF(b, "x", barX, 1)
		b = attrF(b, "y", y, 2)
		b = attrF(b, "width", barW, 1)
		b = attrF(b, "height", stepH+0.5, 2)
		b = appendFill(b, t)
	}
	b = append(b, "<rect"...)
	b = attrF(b, "x", barX, 1)
	b = attrD(b, "y", marginT)
	b = attrF(b, "width", barW, 1)
	b = attrF(b, "height", plotH, 1)
	b = append(b, ` fill="none" stroke="black" stroke-width="0.5"/>`+"\n"...)
	for _, tick := range [...]struct {
		t float64
		v float64
	}{{0, zmin}, {0.5, (zmin + zmax) / 2}, {1, zmax}} {
		y := float64(marginT) + plotH - tick.t*plotH
		b = append(b, "<text"...)
		b = attrF(b, "x", barX+barW+4, 1)
		b = attrF(b, "y", y+3, 1)
		b = append(b, ` font-family="sans-serif" font-size="10">`...)
		b = appendTick(b, tick.v)
		b = append(b, "</text>\n"...)
	}
	if h.ZLabel != "" {
		b = append(b, "<text"...)
		b = attrF(b, "x", barX+barW/2, 1)
		b = attrD(b, "y", marginT-8)
		b = append(b, ` font-family="sans-serif" font-size="11" text-anchor="middle">`...)
		b = appendTextEnd(b, h.ZLabel)
	}

	return append(b, "</svg>\n"...), nil
}

// appendFill closes a <rect> with the ramp colour of t.
func appendFill(dst []byte, t float64) []byte {
	dst = append(dst, ` fill="`...)
	dst = appendRampColor(dst, t)
	return append(dst, "\"/>\n"...)
}

// asciiRamp shades ASCII cells from low to high.
const asciiRamp = " .:-=+*#%@"

// ASCII renders the heatmap on a character grid: each character cell
// shows the nearest data cell's value on a ten-level density ramp, with
// the value range in the caption. cols×rows is the field area
// (reasonable minimums are enforced).
func (h *Heatmap) ASCII(cols, rows int) (string, error) {
	if err := h.Validate(); err != nil {
		return "", err
	}
	zmin, zmax, ok := h.zRange()
	if !ok {
		return "", fmt.Errorf("plot: heatmap %q has no finite values", h.Title)
	}
	if cols < 20 {
		cols = 20
	}
	if rows < 8 {
		rows = 8
	}
	nx, ny := len(h.Xs), len(h.Ys)
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	yTop, yBot := formatTick(h.Ys[ny-1]), formatTick(h.Ys[0])
	labelW := max(len(yTop), len(yBot))
	for r := 0; r < rows; r++ {
		// Top character row maps to the highest y sample.
		yi := (rows - 1 - r) * (ny - 1) / max(rows-1, 1)
		label := strings.Repeat(" ", labelW)
		if r == 0 {
			label = fmt.Sprintf("%*s", labelW, yTop)
		} else if r == rows-1 {
			label = fmt.Sprintf("%*s", labelW, yBot)
		}
		line := make([]byte, cols)
		for c := 0; c < cols; c++ {
			xi := c * (nx - 1) / max(cols-1, 1)
			v := h.Values[yi][xi]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				line[c] = ' '
				continue
			}
			// Data cells use ramp[1:] — the blank is reserved for
			// NaN/Inf gaps, so a zmin cell ('.') stays distinguishable
			// from missing data.
			t := (v - zmin) / (zmax - zmin)
			idx := 1 + int(t*float64(len(asciiRamp)-2))
			idx = max(1, min(len(asciiRamp)-1, idx))
			line[c] = asciiRamp[idx]
		}
		fmt.Fprintf(&b, "%s |%s\n", label, line)
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", cols))
	xl, xr := formatTick(h.Xs[0]), formatTick(h.Xs[nx-1])
	pad := cols - len(xl) - len(xr)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", labelW), xl, strings.Repeat(" ", pad), xr)
	if h.XLabel != "" || h.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", labelW), h.XLabel, h.YLabel)
	}
	z := h.ZLabel
	if z == "" {
		z = "value"
	}
	fmt.Fprintf(&b, "%s  %s: %s (%c) .. %s (%c)\n", strings.Repeat(" ", labelW),
		z, formatTick(zmin), asciiRamp[1], formatTick(zmax), asciiRamp[len(asciiRamp)-1])
	return b.String(), nil
}
