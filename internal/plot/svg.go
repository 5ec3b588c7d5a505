package plot

import (
	"fmt"
	"io"
	"strings"
)

// palette cycles through distinguishable series colors.
var palette = []string{
	"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
	"#8c564b", "#17becf", "#7f7f7f",
}

// SVG renders the chart as a standalone SVG document.
func (c *Chart) SVG(w io.Writer) error {
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
	sx := scale{min: xmin, max: xmax, log: c.LogX}
	sy := scale{min: ymin, max: ymax, log: c.LogY}
	px := func(x float64) float64 { return marginL + sx.norm(x)*plotW }
	py := func(y float64) float64 { return float64(marginT) + (1-sy.norm(y))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%d" y="22" font-family="sans-serif" font-size="15" font-weight="bold">%s</text>`+"\n",
			marginL, escape(c.Title))
	}

	// Grid and ticks.
	for _, t := range sx.ticks(6) {
		x := px(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%.1f" stroke="#e0e0e0" stroke-width="1"/>`+"\n",
			x, marginT, x, float64(marginT)+plotH)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
			x, float64(marginT)+plotH+16, escape(formatTick(t)))
	}
	for _, t := range sy.ticks(6) {
		y := py(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#e0e0e0" stroke-width="1"/>`+"\n",
			marginL, y, float64(marginL)+plotW, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, escape(formatTick(t)))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1.5"/>`+"\n",
		marginL, float64(marginT)+plotH, float64(marginL)+plotW, float64(marginT)+plotH)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%.1f" stroke="black" stroke-width="1.5"/>`+"\n",
		marginL, marginT, marginL, float64(marginT)+plotH)
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
			float64(marginL)+plotW/2, height-10, escape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%.1f" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %.1f)">%s</text>`+"\n",
			float64(marginT)+plotH/2, float64(marginT)+plotH/2, escape(c.YLabel))
	}

	// Ceilings.
	for _, cl := range c.Ceilings {
		y := py(cl.Y)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#666" stroke-width="1.5" stroke-dasharray="6 3"/>`+"\n",
			px(cl.FromX), y, float64(marginL)+plotW, y)
		if cl.Label != "" {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="11" fill="#444">%s</text>`+"\n",
				px(cl.FromX)+4, y-4, escape(cl.Label))
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
				x+6, y-6, escape(m.Label))
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
			float64(marginL)+plotW-124, ly+4, escape(s.Name))
		ly += 16
	}

	b.WriteString("</svg>\n")
	_, err = io.WriteString(w, b.String())
	return err
}

// xmlEscaper escapes text for SVG element content and attribute
// values. A Replacer is safe for concurrent use, so every render
// shares this one instead of building its own.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escape(s string) string { return xmlEscaper.Replace(s) }
