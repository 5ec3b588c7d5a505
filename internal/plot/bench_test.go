package plot_test

import (
	"context"
	"net/url"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/skyline"
)

// The benchmarks live in an external test package so that they can
// render the figures the Skyline server renders: skyline imports plot.

var sinkSVG []byte

// BenchmarkPlotSVG builds and renders the /plot.svg chart for
// Pelican+TX2+DroNet: skyline.Chart over a finished analysis, then the
// document, so the row prices what the handler does after analysis.
func BenchmarkPlotSVG(b *testing.B) {
	cfg, err := catalog.Default().BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet,
	})
	if err != nil {
		b.Fatal(err)
	}
	an, err := core.Analyze(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if sinkSVG, err = skyline.Chart(an).AppendSVG(sinkSVG[:0:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeatmapSVG renders a finished 40×30 safe-velocity grid
// (payload × compute rate over Pelican+TX2+DroNet, the /grid.svg
// default shape): the render alone, without the sweep.
func BenchmarkHeatmapSVG(b *testing.B) {
	q := url.Values{
		"uav": {catalog.UAVAscTecPelican}, "compute": {catalog.ComputeTX2}, "algorithm": {catalog.AlgoDroNet},
		"x": {"payload"}, "xlo": {"1"}, "xhi": {"600"},
		"y": {"compute"}, "ylo": {"1"}, "yhi": {"120"},
	}
	req, err := skyline.ParseGrid(catalog.Default(), q)
	if err != nil {
		b.Fatal(err)
	}
	hm, err := req.Run(context.Background(), catalog.Default())
	if err != nil {
		b.Fatal(err)
	}
	if len(hm.Xs) != 40 || len(hm.Ys) != 30 {
		b.Fatalf("grid is %d×%d, want 40×30", len(hm.Xs), len(hm.Ys))
	}
	b.ReportAllocs()
	for b.Loop() {
		if sinkSVG, err = hm.AppendSVG(sinkSVG[:0:0]); err != nil {
			b.Fatal(err)
		}
	}
}
