package plot

import (
	"math"
	"strings"
	"testing"
)

// testHeatmap builds a small gradient field: Values[yi][xi] = xi + yi.
func testHeatmap() *Heatmap {
	h := &Heatmap{
		Title:  "test field",
		XLabel: "payload (g)",
		YLabel: "compute rate (Hz)",
		ZLabel: "v_safe (m/s)",
		Xs:     []float64{0, 100, 200, 300},
		Ys:     []float64{10, 20, 30},
	}
	for yi := range h.Ys {
		row := make([]float64, len(h.Xs))
		for xi := range row {
			row[xi] = float64(xi + yi)
		}
		h.Values = append(h.Values, row)
	}
	return h
}

func TestHeatmapValidate(t *testing.T) {
	cases := map[string]*Heatmap{
		"empty axis":  {Xs: nil, Ys: []float64{1}, Values: [][]float64{}},
		"row count":   {Xs: []float64{1}, Ys: []float64{1, 2}, Values: [][]float64{{1}}},
		"ragged row":  {Xs: []float64{1, 2}, Ys: []float64{1}, Values: [][]float64{{1}}},
		"no y values": {Xs: []float64{1}, Ys: nil, Values: nil},
	}
	for name, h := range cases {
		if err := h.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := testHeatmap().Validate(); err != nil {
		t.Errorf("valid heatmap rejected: %v", err)
	}
}

func TestHeatmapSVG(t *testing.T) {
	var b strings.Builder
	if err := testHeatmap().SVG(&b); err != nil {
		t.Fatal(err)
	}
	svg := b.String()
	for _, want := range []string{
		"<svg", "</svg>", "test field", "payload (g)", "compute rate (Hz)",
		"v_safe (m/s)", "<rect",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// 12 data cells + background + color bar strip must all be there.
	if n := strings.Count(svg, "<rect"); n < 12+1+16 {
		t.Errorf("only %d rects", n)
	}
	// The extreme cells get the ramp's end colors.
	if !strings.Contains(svg, rampColor(0)) || !strings.Contains(svg, rampColor(1)) {
		t.Error("ramp extremes not used")
	}
}

func TestHeatmapSVGNaNCellsAreGaps(t *testing.T) {
	h := testHeatmap()
	h.Values[1][1] = math.NaN()
	var with strings.Builder
	if err := h.SVG(&with); err != nil {
		t.Fatal(err)
	}
	var without strings.Builder
	if err := testHeatmap().SVG(&without); err != nil {
		t.Fatal(err)
	}
	if strings.Count(with.String(), "<rect") != strings.Count(without.String(), "<rect")-1 {
		t.Error("NaN cell was not dropped")
	}
}

func TestHeatmapSVGAllNaN(t *testing.T) {
	h := testHeatmap()
	for yi := range h.Values {
		for xi := range h.Values[yi] {
			h.Values[yi][xi] = math.NaN()
		}
	}
	if err := h.SVG(&strings.Builder{}); err == nil {
		t.Error("all-NaN heatmap rendered")
	}
}

func TestHeatmapSVGFlatField(t *testing.T) {
	h := testHeatmap()
	for yi := range h.Values {
		for xi := range h.Values[yi] {
			h.Values[yi][xi] = 7
		}
	}
	var b strings.Builder
	if err := h.SVG(&b); err != nil {
		t.Fatalf("flat field failed: %v", err)
	}
}

func TestHeatmapASCII(t *testing.T) {
	out, err := testHeatmap().ASCII(40, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"test field", "x: payload (g)", "v_safe (m/s):"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCII missing %q\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			rows = append(rows, l[strings.Index(l, "|")+1:])
		}
	}
	if len(rows) != 10 {
		t.Fatalf("got %d field rows, want 10", len(rows))
	}
	// The gradient runs bottom-left (low) to top-right (high): the top
	// row must end denser than the bottom row starts.
	top, bot := rows[0], rows[len(rows)-1]
	hi := strings.IndexByte(asciiRamp, top[len(top)-1])
	lo := strings.IndexByte(asciiRamp, bot[0])
	if hi <= lo {
		t.Errorf("ramp not increasing: top-right %q (%d) vs bottom-left %q (%d)\n%s",
			top[len(top)-1], hi, bot[0], lo, out)
	}
}

func TestHeatmapASCIIMinCellIsNotBlank(t *testing.T) {
	// The blank glyph is reserved for NaN gaps: a cell at exactly zmin
	// must render as the ramp's first visible glyph, matching the
	// caption's low-end marker.
	h := testHeatmap()
	h.Values[0][0] = -100 // far below the rest: the sole zmin cell
	h.Values[2][1] = math.NaN()
	out, err := h.ASCII(20, 8)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.Contains(l, "|") {
			rows = append(rows, l[strings.Index(l, "|")+1:])
		}
	}
	// Row 0 of the data is the BOTTOM character row; its first cell is
	// the zmin cell and must be '.', not ' '.
	bottom := rows[len(rows)-1]
	if bottom[0] != asciiRamp[1] {
		t.Errorf("zmin cell rendered %q, want %q\n%s", bottom[0], asciiRamp[1], out)
	}
	// The NaN cell (top data row, second x sample) still renders blank.
	if !strings.Contains(strings.Join(rows, ""), " ") {
		t.Error("no gap rendered for the NaN cell")
	}
}

func rampColor(t float64) string { return string(appendRampColor(nil, t)) }

func TestRampColorMonotoneEndpoints(t *testing.T) {
	if rampColor(0) != "#440154" {
		t.Errorf("ramp(0) = %s", rampColor(0))
	}
	if rampColor(1) != "#fde725" {
		t.Errorf("ramp(1) = %s", rampColor(1))
	}
	// Out-of-range and NaN inputs stay defined.
	if rampColor(-1) != rampColor(0) || rampColor(2) != rampColor(1) {
		t.Error("clamping broken")
	}
	if rampColor(math.NaN()) != "#ffffff" {
		t.Error("NaN not white")
	}
	// Every channel value the ramp reaches matches the fmt-based %02x.
	for i := -10; i <= 1010; i++ {
		v := float64(i) / 1000
		if got, want := rampColor(v), oracleRampColor(v); got != want {
			t.Fatalf("ramp(%v) = %s, want %s", v, got, want)
		}
	}
}
