package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/plot"
)

func init() {
	register(Experiment{
		ID:    "ext-grid",
		Title: "Extension: two-knob grid characterization heatmap (Pelican + TX2 + DroNet)",
		Run:   runExtGrid,
	})
}

// runExtGrid sweeps the (payload × compute rate) plane of the paper's
// reference system and renders the safe-velocity field as a heatmap —
// the two-dimensional generalization of the Fig. 9 payload sweep, and
// the experiment behind the Skyline /grid.svg endpoint.
func runExtGrid(ctx context.Context, c *catalog.Catalog) (Result, error) {
	res := Result{ID: "ext-grid", Title: "Grid characterization: payload × compute rate"}
	cfg, err := c.BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if err != nil {
		return Result{}, err
	}
	const (
		nx, ny = 36, 24
		pLo    = 0.0
		pHi    = 600.0 // grams — past the Pelican's lift capacity corner
		fLo    = 1.0
		fHi    = 200.0 // Hz — spans sensor- and compute-bound regimes
	)
	grid, err := dse.GridSweepContext(ctx, cfg, dse.KnobPayload, pLo, pHi, nx, dse.KnobComputeRate, fLo, fHi, ny, 0)
	if err != nil {
		return Result{}, err
	}
	res.Heatmaps = append(res.Heatmaps, &plot.Heatmap{
		Title:  "v_safe over payload × compute rate (Pelican + DroNet)",
		XLabel: dse.KnobPayload.String(),
		YLabel: dse.KnobComputeRate.String(),
		ZLabel: "v_safe (m/s)",
		Xs:     grid.Xs,
		Ys:     grid.Ys,
		Values: grid.VelocityGrid(),
	})

	// The table summarizes the field's structure: per compute-rate row,
	// the velocity range across payloads and the dominant bound — the
	// knee of the F-1 model traced through the plane.
	t := Table{
		Title:   "Safe-velocity field summary (every 4th compute-rate row)",
		Columns: []string{"f_compute (Hz)", "v_safe min (m/s)", "v_safe max (m/s)", "Dominant bound"},
	}
	for yi := 0; yi < ny; yi += 4 {
		lo, hi := math.Inf(1), math.Inf(-1)
		bounds := map[string]int{}
		for xi := 0; xi < nx; xi++ {
			an := grid.Cells[yi][xi]
			v := an.SafeVelocity.MetersPerSecond()
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			bounds[an.Bound.String()]++
		}
		dominant, best := "", 0
		//reprolint:ordered argmax with a lexicographic tie-break picks the same winner in any iteration order
		for b, n := range bounds {
			if n > best || (n == best && b < dominant) {
				dominant, best = b, n
			}
		}
		t.AddRow(fmtF(grid.Ys[yi], 1), fmtF(lo, 2), fmtF(hi, 2), dominant)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d×%d grid (%d analyses) evaluated by the GridSweep engine", nx, ny, nx*ny))
	res.Tables = append(res.Tables, t)
	return res, nil
}
