package plot

import (
	"fmt"
	"strings"
)

// seriesGlyphs marks each series in ASCII output.
var seriesGlyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// ASCII renders the chart on a character grid — enough fidelity to see
// the roofline shape, the knee, and where design points sit relative to
// it, straight in a terminal. cols×rows is the plot area (reasonable
// minimums are enforced).
func (c *Chart) ASCII(cols, rows int) (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	if cols < 20 {
		cols = 20
	}
	if rows < 8 {
		rows = 8
	}
	xmin, xmax, ymin, ymax, err := c.bounds()
	if err != nil {
		return "", err
	}
	sx := newScale(xmin, xmax, c.LogX)
	sy := newScale(ymin, ymax, c.LogY)

	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	put := func(x, y float64, glyph byte) {
		nx, ny := sx.norm(x), sy.norm(y)
		if nx < 0 || nx > 1 || ny < 0 || ny > 1 {
			return
		}
		col := int(nx * float64(cols-1))
		row := int((1 - ny) * float64(rows-1))
		grid[row][col] = glyph
	}

	// Ceilings first (series overwrite them where they cross).
	for _, cl := range c.Ceilings {
		ny := sy.norm(cl.Y)
		if ny < 0 || ny > 1 {
			continue
		}
		row := int((1 - ny) * float64(rows-1))
		from := int(sx.norm(cl.FromX) * float64(cols-1))
		if from < 0 {
			from = 0
		}
		for col := from; col < cols; col++ {
			grid[row][col] = '-'
		}
	}
	for i, s := range c.Series {
		glyph := seriesGlyphs[i%len(seriesGlyphs)]
		// Dense interpolation between samples keeps lines connected.
		for k := 0; k < len(s.X); k++ {
			if c.LogX && s.X[k] <= 0 || c.LogY && s.Y[k] <= 0 {
				continue
			}
			put(s.X[k], s.Y[k], glyph)
			if k > 0 {
				for t := 0.25; t < 1; t += 0.25 {
					xm := s.X[k-1] + t*(s.X[k]-s.X[k-1])
					ym := s.Y[k-1] + t*(s.Y[k]-s.Y[k-1])
					if (c.LogX && xm <= 0) || (c.LogY && ym <= 0) {
						continue
					}
					put(xm, ym, glyph)
				}
			}
		}
	}
	for _, m := range c.Markers {
		put(m.X, m.Y, 'X')
	}

	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yTop, yBot := formatTick(ymax), formatTick(ymin)
	labelW := len(yTop)
	if len(yBot) > labelW {
		labelW = len(yBot)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", labelW)
		if i == 0 {
			label = fmt.Sprintf("%*s", labelW, yTop)
		} else if i == rows-1 {
			label = fmt.Sprintf("%*s", labelW, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", cols))
	xl := formatTick(xmin)
	xr := formatTick(xmax)
	pad := cols - len(xl) - len(xr)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", labelW), xl, strings.Repeat(" ", pad), xr)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "%s  x: %s   y: %s\n", strings.Repeat(" ", labelW), c.XLabel, c.YLabel)
	}
	for i, s := range c.Series {
		if s.Name != "" {
			fmt.Fprintf(&b, "  %c %s\n", seriesGlyphs[i%len(seriesGlyphs)], s.Name)
		}
	}
	return b.String(), nil
}
