// Package plot renders F-1 charts as SVG (for the Skyline web tool and
// the experiment harness) and as ASCII (for terminal output). It is a
// small, dependency-free charting layer: line series with optional log
// axes, horizontal ceiling segments, point markers with labels, a
// legend, and nice tick generation.
//
// SVG has one rendering path: Chart.AppendSVG and Heatmap.AppendSVG
// append the whole document to a byte slice sized from the figure's
// element counts, and SVG(io.Writer) writes what they append. Numbers
// go through appendFixed (svgappend.go), which matches
// strconv.AppendFloat(v, 'f', prec, 64) byte for byte without its
// multiprecision path; it falls back to strconv for NaN and ±Inf, when
// |v|·10^prec ≥ 2^52, and on an exact decimal tie.
package plot

import (
	"fmt"
	"math"
)

// Series is one polyline on a chart.
type Series struct {
	// Name appears in the legend.
	Name string
	// X, Y are the data points (equal length).
	X, Y []float64
	// Dashed draws the line dashed (used for idealized rooflines).
	Dashed bool
}

// Marker is an annotated point.
type Marker struct {
	X, Y  float64
	Label string
}

// Ceiling is a horizontal segment from FromX to the chart's right edge
// at height Y — the sensor/compute ceilings of Fig. 4a.
type Ceiling struct {
	Y     float64
	FromX float64
	Label string
}

// Chart is a complete figure description.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	// LogX/LogY select logarithmic axes (the F-1 plot uses LogX).
	LogX, LogY bool
	Series     []Series
	Markers    []Marker
	Ceilings   []Ceiling
	// Width, Height are the SVG pixel dimensions; zero means 720×440.
	Width, Height int
}

// Validate reports the first structural problem with the chart.
func (c *Chart) Validate() error {
	if len(c.Series) == 0 && len(c.Markers) == 0 {
		return fmt.Errorf("plot: chart %q has no data", c.Title)
	}
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("plot: series %q has %d x values but %d y values", s.Name, len(s.X), len(s.Y))
		}
		if len(s.X) == 0 {
			return fmt.Errorf("plot: series %q is empty", s.Name)
		}
	}
	return nil
}

// bounds computes the data extent across series, markers and ceilings.
func (c *Chart) bounds() (xmin, xmax, ymin, ymax float64, err error) {
	xmin, ymin = math.Inf(1), math.Inf(1)
	xmax, ymax = math.Inf(-1), math.Inf(-1)
	consider := func(x, y float64) {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return
		}
		if c.LogX && x <= 0 {
			return
		}
		if c.LogY && y <= 0 {
			return
		}
		xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
		ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
	}
	for _, s := range c.Series {
		for i := range s.X {
			consider(s.X[i], s.Y[i])
		}
	}
	for _, m := range c.Markers {
		consider(m.X, m.Y)
	}
	for _, cl := range c.Ceilings {
		consider(cl.FromX, cl.Y)
	}
	if xmin > xmax || ymin > ymax {
		return 0, 0, 0, 0, fmt.Errorf("plot: chart %q has no plottable points", c.Title)
	}
	if xmin == xmax {
		xmin, xmax = xmin*0.9-1, xmax*1.1+1
	}
	if ymin == ymax {
		ymin, ymax = ymin*0.9-1, ymax*1.1+1
	}
	if !c.LogY && ymin > 0 {
		ymin = 0 // velocity axes start at zero
	}
	return xmin, xmax, ymin, ymax, nil
}

// scale maps a data coordinate into [0,1] under the axis transform.
// A log scale keeps log10 of its bounds, so norm takes one logarithm
// per point.
type scale struct {
	min, max   float64
	log        bool
	lmin, lmax float64
}

func newScale(min, max float64, log bool) scale {
	s := scale{min: min, max: max, log: log}
	if log {
		s.lmin, s.lmax = math.Log10(min), math.Log10(max)
	}
	return s
}

func (s scale) norm(v float64) float64 {
	if s.log {
		if v <= 0 {
			return 0
		}
		return (math.Log10(v) - s.lmin) / (s.lmax - s.lmin)
	}
	return (v - s.min) / (s.max - s.min)
}

// Ticks produces axis tick positions: decade ticks (1-2-5 filled) for
// log axes, "nice" steps for linear ones.
func (s scale) ticks(target int) []float64 {
	if s.log {
		return logTicks(s.min, s.max)
	}
	return linTicks(s.min, s.max, target)
}

func logTicks(min, max float64) []float64 {
	if min <= 0 || max <= min {
		return nil
	}
	var out []float64
	lo := math.Floor(math.Log10(min))
	hi := math.Ceil(math.Log10(max))
	for e := lo; e <= hi; e++ {
		v := math.Pow(10, e)
		if v >= min*0.999 && v <= max*1.001 {
			out = append(out, v)
		}
	}
	// Sparse decade range: add 2× and 5× subdivisions.
	if len(out) <= 2 {
		for e := lo - 1; e <= hi; e++ {
			for _, m := range []float64{2, 5} {
				v := m * math.Pow(10, e)
				if v >= min*0.999 && v <= max*1.001 {
					out = append(out, v)
				}
			}
		}
	}
	sortFloats(out)
	return out
}

func linTicks(min, max float64, target int) []float64 {
	if target < 2 {
		target = 2
	}
	span := max - min
	if span <= 0 {
		return nil
	}
	raw := span / float64(target)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for v := math.Ceil(min/step) * step; v <= max*1.0001; v += step {
		out = append(out, v)
	}
	return out
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
