package plot

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// fixedSeeds are the appendFixed edge cases: signed zero, subnormals,
// exact binary ties (where strconv rounds half to even), near-ties
// whose decimal spelling looks like a tie, the 2^52 boundary of the
// fast path at every precision, and the non-finite values.
var fixedSeeds = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	0.125, 0.375, 2.5, 0.5, 1.5, -2.5, 0.05, 0.25, 1.0625,
	2.675, 1.005, 0.045, 1.45, 0.15, 9.995, 99.95, -0.04, -0.05, 0.4999999999999999,
	1 << 52, 1<<52 - 1, 1<<52 + 1, 1 << 53,
	(1 << 52) / 10.0, (1 << 52) / 100.0, (1 << 52) / 1000.0,
	math.Nextafter((1<<52)/10.0, 0), math.Nextafter((1<<52)/100.0, 0), math.Nextafter((1<<52)/1000.0, 0),
	math.Nextafter((1<<52)/10.0, math.Inf(1)), math.Nextafter((1<<52)/1000.0, math.Inf(1)),
	math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// requireFixed diffs appendFixed against strconv for one value.
func requireFixed(t *testing.T, v float64, prec int) {
	t.Helper()
	want := strconv.AppendFloat([]byte("x"), v, 'f', prec, 64)
	if got := appendFixed([]byte("x"), v, prec); !bytes.Equal(got, want) {
		t.Fatalf("appendFixed(%v [%#x], %d) = %s, want %s", v, math.Float64bits(v), prec, got[1:], want[1:])
	}
}

func TestAppendFixedMatchesStrconv(t *testing.T) {
	for prec := -1; prec <= 5; prec++ {
		for _, v := range fixedSeeds {
			requireFixed(t, v, prec)
			requireFixed(t, -v, prec)
		}
	}
	// Random values across the magnitudes the renderers see (pixel
	// coordinates, tick values) and far beyond, plus every multiple of
	// 1/8 near zero, whose last digits fall on exact ties.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		v := math.Ldexp(rng.Float64(), rng.Intn(80)-30)
		if rng.Intn(2) == 0 {
			v = -v
		}
		requireFixed(t, v, i%4)
	}
	for i := -4000; i <= 4000; i++ {
		for prec := 0; prec <= 3; prec++ {
			requireFixed(t, float64(i)/8, prec)
			requireFixed(t, float64(i)/1000, prec)
		}
	}
}

// FuzzAppendFixed diffs appendFixed against strconv.AppendFloat(…,
// 'f', prec, 64) for prec 0–3. Crashers belong under
// testdata/fuzz/FuzzAppendFixed as regression seeds.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range fixedSeeds {
		f.Add(v, uint8(1))
	}
	f.Fuzz(func(t *testing.T, v float64, prec uint8) {
		requireFixed(t, v, int(prec%4))
	})
}

func TestAppendEscapedMatchesReplacer(t *testing.T) {
	for _, s := range []string{
		"", "plain", `a<b>&"c" \ frame`, "<deep>&<deep>&", "&amp;", `"""`,
		"bad \xff\xfe utf8", "ctl \b\f\n\r\t \x00\x1f\x7f", "ünïcødé ✈ \u2028\u2029", ">", "x&",
	} {
		if got, want := string(appendEscaped([]byte("x"), s)), "x"+oracleEscape(s); got != want {
			t.Errorf("appendEscaped(%q) = %q, want %q", s, got, want)
		}
	}
}

func TestAppendTickMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		v := math.Ldexp(rng.Float64(), rng.Intn(60)-30)
		if i%3 == 0 {
			v = math.Round(v*10) / 10
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		if got, want := formatTick(v), oracleFormatTick(v); got != want {
			t.Fatalf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
	for _, v := range fixedSeeds {
		if got, want := formatTick(v), oracleFormatTick(v); got != want {
			t.Fatalf("formatTick(%v) = %q, want %q", v, got, want)
		}
	}
}

// hostileText is label text with every character the escaper rewrites.
var hostileText = []string{"", "F-1: AscTec Pelican", `a<b>&"c" frame`, "<deep>&<deep>", `q "x" & y`, "bad \xff utf8"}

// randValue draws a coordinate: mostly finite and spread over decades,
// sometimes zero, negative, NaN or infinite.
func randValue(rng *rand.Rand) float64 {
	switch rng.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return -rng.Float64() * 100
	}
	return math.Ldexp(0.5+rng.Float64(), rng.Intn(24)-8)
}

// randChart draws a chart: random axes scales, 0–3 series (some
// dashed, some with every point non-positive so their polyline is
// empty on a log axis), markers, ceilings, hostile text and sizes.
func randChart(rng *rand.Rand) *Chart {
	pick := func() string { return hostileText[rng.Intn(len(hostileText))] }
	c := &Chart{
		Title: pick(), XLabel: pick(), YLabel: pick(),
		LogX: rng.Intn(2) == 0, LogY: rng.Intn(4) == 0,
	}
	if rng.Intn(3) == 0 {
		c.Width, c.Height = 200+rng.Intn(800), 150+rng.Intn(500)
	}
	for i := rng.Intn(4); i > 0; i-- {
		n := 1 + rng.Intn(60)
		s := Series{Name: pick(), X: make([]float64, n), Y: make([]float64, n), Dashed: rng.Intn(2) == 0}
		allNeg := rng.Intn(6) == 0
		for k := range s.X {
			s.X[k], s.Y[k] = randValue(rng), randValue(rng)
			if allNeg {
				s.X[k] = -1 - float64(k)
			}
		}
		c.Series = append(c.Series, s)
	}
	for i := rng.Intn(4); i > 0; i-- {
		c.Markers = append(c.Markers, Marker{X: randValue(rng), Y: randValue(rng), Label: pick()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		c.Ceilings = append(c.Ceilings, Ceiling{Y: randValue(rng), FromX: randValue(rng), Label: pick()})
	}
	return c
}

// randHeatmap draws a heatmap: random shape and sizes, NaN and
// infinite gaps, sometimes a flat field or an all-gap one.
func randHeatmap(rng *rand.Rand) *Heatmap {
	pick := func() string { return hostileText[rng.Intn(len(hostileText))] }
	nx, ny := 1+rng.Intn(30), 1+rng.Intn(25)
	h := &Heatmap{Title: pick(), XLabel: pick(), YLabel: pick(), ZLabel: pick()}
	if rng.Intn(3) == 0 {
		h.Width, h.Height = 200+rng.Intn(800), 150+rng.Intn(500)
	}
	h.Xs, h.Ys = make([]float64, nx), make([]float64, ny)
	lo, step := randValue(rng), math.Ldexp(rng.Float64(), rng.Intn(20)-10)
	for i := range h.Xs {
		h.Xs[i] = lo + float64(i)*step
	}
	for i := range h.Ys {
		h.Ys[i] = math.Ldexp(float64(i+1), rng.Intn(12)-6)
	}
	flat := rng.Intn(6) == 0
	h.Values = make([][]float64, ny)
	for yi := range h.Values {
		h.Values[yi] = make([]float64, nx)
		for xi := range h.Values[yi] {
			v := randValue(rng)
			if flat && !math.IsNaN(v) && !math.IsInf(v, 0) {
				v = 4.2
			}
			h.Values[yi][xi] = v
		}
	}
	return h
}

// requireSameDocument diffs AppendSVG against the fmt oracle: the same
// bytes, or the same error with nothing appended.
func requireSameDocument(t *testing.T, what string, fig interface{ AppendSVG([]byte) ([]byte, error) }, oracle func(*bytes.Buffer) error) {
	t.Helper()
	var want bytes.Buffer
	wantErr := oracle(&want)
	got, err := fig.AppendSVG([]byte("x"))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	}
	if err != nil {
		if string(got) != "x" {
			t.Fatalf("%s: failed render appended %q", what, got[1:])
		}
		return
	}
	if !bytes.Equal(got[1:], want.Bytes()) {
		g, w := string(got[1:]), want.String()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s: documents differ at byte %d:\n got …%.120s\nwant …%.120s", what, i, g[i:], w[i:])
	}
}

// TestAppendSVGMatchesOracle draws random charts and heatmaps and
// requires AppendSVG to reproduce the fmt-based renderers byte for
// byte, errors included.
func TestAppendSVGMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rendered := 0
	for i := 0; i < 600; i++ {
		c := randChart(rng)
		requireSameDocument(t, fmt.Sprintf("chart %d", i), c, func(b *bytes.Buffer) error { return oracleChartSVG(c, b) })
		h := randHeatmap(rng)
		requireSameDocument(t, fmt.Sprintf("heatmap %d", i), h, func(b *bytes.Buffer) error { return oracleHeatmapSVG(h, b) })
		if _, err := c.AppendSVG(nil); err == nil {
			rendered++
		}
	}
	if rendered < 200 {
		t.Fatalf("only %d of 600 random charts rendered; the generator no longer reaches the renderer", rendered)
	}
	for _, c := range []*Chart{f1Chart(), {Series: []Series{{X: []float64{1, 2}, Y: []float64{3, 3}}}}} {
		requireSameDocument(t, c.Title, c, func(b *bytes.Buffer) error { return oracleChartSVG(c, b) })
	}
	for _, h := range []*Heatmap{testHeatmap(), {Xs: []float64{1}, Ys: []float64{1}, Values: [][]float64{{7}}}} {
		requireSameDocument(t, h.Title, h, func(b *bytes.Buffer) error { return oracleHeatmapSVG(h, b) })
	}
}

// TestSVGWriterMatchesAppend: SVG(io.Writer) writes exactly the
// appended document, and nothing at all on a render error.
func TestSVGWriterMatchesAppend(t *testing.T) {
	var w strings.Builder
	if err := f1Chart().SVG(&w); err != nil {
		t.Fatal(err)
	}
	if b, _ := f1Chart().AppendSVG(nil); w.String() != string(b) {
		t.Error("Chart.SVG differs from AppendSVG")
	}
	w.Reset()
	if err := (&Heatmap{Xs: []float64{1}, Ys: []float64{1}, Values: [][]float64{{math.NaN()}}}).SVG(&w); err == nil || w.Len() != 0 {
		t.Errorf("all-NaN heatmap: err %v, wrote %d bytes", err, w.Len())
	}
}

// TestAppendSVGAllocs pins allocations per render: for the chart, the
// growth of its two tick slices (seven here) and the document; for the
// heatmap, the document alone.
func TestAppendSVGAllocs(t *testing.T) {
	c, h := f1Chart(), testHeatmap()
	for _, tc := range []struct {
		name string
		fig  interface{ AppendSVG([]byte) ([]byte, error) }
		max  float64
	}{{"chart", c, 8}, {"heatmap", h, 1}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := tc.fig.AppendSVG(nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.max {
			t.Errorf("%s: %v allocs per render, want ≤ %v", tc.name, allocs, tc.max)
		}
	}
}
