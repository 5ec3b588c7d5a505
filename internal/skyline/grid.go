package skyline

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/plot"
	"repro/internal/units"
)

// GridRequest is the /grid.svg interface: the base configuration uses
// the same preset/custom parameters as /plot.svg, plus:
//
//	x, y       = payload | range | sensor | compute (must differ)
//	xlo, xhi   = x-axis bounds (the knob's natural unit)
//	ylo, yhi   = y-axis bounds
//	nx, ny     = grid resolution (default 40×30, max 200 per axis)
//	objective  = mission evaluator rescoring each cell (preset mode
//	             only; see docs/OBJECTIVES.md), with metric= choosing
//	             the rendered column and seed= the Monte-Carlo base
//
// The response is a safe-velocity heatmap over the (x × y) grid — the
// GridSweep characterization map — or, with objective=, a heatmap of
// one mission-level metric column over the same grid.
type GridRequest struct {
	Params   Params
	X, Y     dse.Knob
	XLo, XHi float64
	YLo, YHi float64
	NX, NY   int
	// Workers bounds the evaluation pool (0 = all cores); the server
	// sets it to the request's clamped workers= knob.
	Workers int

	// Objective post-scores every cell with a mission-level evaluator
	// (nil = render safe velocity). Preset mode only: the evaluator
	// resolves catalog components, which custom configs do not have.
	Objective     dse.Evaluator
	ObjectiveName string
	// Metric names the rendered objective column ("" = column 0).
	Metric string
}

// gridMaxAxis bounds each axis so one request cannot monopolize the
// server (200×200 analyses ≈ tens of milliseconds; far beyond any
// legible SVG anyway).
const gridMaxAxis = 200

// ParseGrid extracts a grid request from query parameters, resolving
// the optional objective= against the catalog's evaluator registry.
func ParseGrid(cat *catalog.Catalog, q url.Values) (GridRequest, error) {
	p, err := ParseParams(q)
	if err != nil {
		return GridRequest{}, err
	}
	req := GridRequest{Params: p, NX: 40, NY: 30}
	if req.X, err = parseKnob("x", q.Get("x")); err != nil {
		return GridRequest{}, err
	}
	if req.Y, err = parseKnob("y", q.Get("y")); err != nil {
		return GridRequest{}, err
	}
	if req.X == req.Y {
		return GridRequest{}, fmt.Errorf("skyline: grid axes must differ, got %s twice", q.Get("x"))
	}
	parse := func(key string, dst *float64) {
		if err != nil {
			return
		}
		v, perr := strconv.ParseFloat(q.Get(key), 64)
		if perr != nil {
			err = fmt.Errorf("skyline: grid parameter %q: %v", key, perr)
			return
		}
		// Axis bounds must be real numbers (ParseFloat accepts "NaN"
		// and "Inf"; a NaN bound would reach the physics models).
		if math.IsNaN(v) || math.IsInf(v, 0) {
			err = fmt.Errorf("skyline: grid parameter %q must be finite, got %v", key, v)
			return
		}
		*dst = v
	}
	parse("xlo", &req.XLo)
	parse("xhi", &req.XHi)
	parse("ylo", &req.YLo)
	parse("yhi", &req.YHi)
	if err != nil {
		return GridRequest{}, err
	}
	readN := func(key string, dst *int) error {
		s := q.Get(key)
		if s == "" {
			return nil
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 || n > gridMaxAxis {
			return fmt.Errorf("skyline: grid parameter %s must be 2..%d, got %q", key, gridMaxAxis, s)
		}
		*dst = n
		return nil
	}
	if err := readN("nx", &req.NX); err != nil {
		return GridRequest{}, err
	}
	if err := readN("ny", &req.NY); err != nil {
		return GridRequest{}, err
	}

	req.ObjectiveName = q.Get("objective")
	seed, hasSeed, err := parseSeed(q)
	if err != nil {
		return GridRequest{}, err
	}
	if req.ObjectiveName != "" {
		if p.Mode == "custom" {
			return GridRequest{}, fmt.Errorf("skyline: grid: objective= needs preset mode (mission evaluators resolve catalog components)")
		}
		if req.Objective, err = dse.NewObjective(req.ObjectiveName, cat, seed); err != nil {
			return GridRequest{}, fmt.Errorf("skyline: grid: %w", err)
		}
	} else if hasSeed {
		return GridRequest{}, fmt.Errorf("skyline: grid: seed= needs objective=")
	}
	if m := q.Get("metric"); m != "" {
		if req.Objective == nil {
			return GridRequest{}, fmt.Errorf("skyline: grid: metric= needs objective=")
		}
		cols := req.Objective.Columns()
		if dse.ColumnIndex(cols, m) < 0 {
			names := make([]string, len(cols))
			for i, c := range cols {
				names[i] = c.Name
			}
			return GridRequest{}, fmt.Errorf("skyline: grid: unknown metric %q (want %s)", m, strings.Join(names, ", "))
		}
		req.Metric = m
	}
	return req, nil
}

// Run executes the grid sweep against the catalog and renders the
// safe-velocity heatmap. ctx scopes the nx·ny analyses to the request:
// a dropped client cancels the remaining cells.
func (r GridRequest) Run(ctx context.Context, cat *catalog.Catalog) (*plot.Heatmap, error) {
	cfg, err := r.Params.Config(cat)
	if err != nil {
		return nil, err
	}
	res, err := dse.GridSweepContext(ctx, cfg, r.X, r.XLo, r.XHi, r.NX, r.Y, r.YLo, r.YHi, r.NY, r.Workers)
	if err != nil {
		return nil, err
	}
	if r.Objective != nil {
		return r.objectiveHeatmap(ctx, cat, cfg, res)
	}
	return &plot.Heatmap{
		Title:  fmt.Sprintf("Grid: %s — %s × %s", cfg.Name, r.X, r.Y),
		XLabel: r.X.String(),
		YLabel: r.Y.String(),
		ZLabel: "v_safe (m/s)",
		Xs:     res.Xs,
		Ys:     res.Ys,
		Values: res.VelocityGrid(),
	}, nil
}

// objectiveHeatmap rescores the completed grid under the request's
// mission evaluator and renders the chosen metric column. Each cell is
// a Candidate with the preset selection and the cell's analysis;
// Monte-Carlo cells derive their seed from the base seed plus the flat
// cell index, so the field is deterministic at any resolution and
// independent of sweep scheduling.
func (r GridRequest) objectiveHeatmap(ctx context.Context, cat *catalog.Catalog, cfg core.Config, res dse.GridResult) (*plot.Heatmap, error) {
	sel := catalog.Selection{
		UAV:       defaultStr(r.Params.UAV, catalog.UAVAscTecPelican),
		Compute:   defaultStr(r.Params.Compute, catalog.ComputeTX2),
		Algorithm: defaultStr(r.Params.Algorithm, catalog.AlgoDroNet),
	}
	if r.Params.TDPW > 0 {
		sel.TDPOverride = units.Watts(r.Params.TDPW)
	}
	rv, err := cat.Resolve(sel)
	if err != nil {
		return nil, err
	}
	cols := r.Objective.Columns()
	col := 0
	if r.Metric != "" {
		col = dse.ColumnIndex(cols, r.Metric)
	}
	base := r.Objective.Seed()
	vals := make([][]float64, len(res.Cells))
	out := make([]float64, len(cols))
	for yi, row := range res.Cells {
		vals[yi] = make([]float64, len(row))
		for xi := range row {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			cand := dse.Candidate{Selection: sel, Analysis: row[xi], Power: rv.Compute.TDP}
			seed := base
			if base != 0 {
				seed = base + int64(yi*len(row)+xi)
			}
			if err := r.Objective.Evaluate(ctx, &cand, seed, out); err != nil {
				return nil, fmt.Errorf("skyline: grid objective %s at (%v=%v, %v=%v): %w",
					r.ObjectiveName, r.X, res.Xs[xi], r.Y, res.Ys[yi], err)
			}
			vals[yi][xi] = out[col]
		}
	}
	return &plot.Heatmap{
		Title:  fmt.Sprintf("Grid: %s — %s × %s (%s)", cfg.Name, r.X, r.Y, r.ObjectiveName),
		XLabel: r.X.String(),
		YLabel: r.Y.String(),
		ZLabel: cols[col].Name,
		Xs:     res.Xs,
		Ys:     res.Ys,
		Values: vals,
	}, nil
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	req, err := ParseGrid(s.cat, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Workers, err = s.requestWorkers(r.URL.Query()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	// Persistent-store fast path (before admission, like /explore): a
	// previously rendered grid is served as stored SVG bytes.
	var storeKey string
	if s.store != nil {
		storeKey = gridStoreKey(s.catRev, req)
		if body, ok := s.store.Get(storeKey); ok {
			s.metrics.storeGrid.Add(1)
			serveStored(w, "image/svg+xml", "hit", body)
			return
		}
	}
	release, ok := s.admitHeavy(ctx, w, r)
	if !ok {
		return
	}
	defer release()
	w.Header().Set("X-Explore-Workers", strconv.Itoa(req.Workers))
	hm, err := req.Run(ctx, s.cat)
	if err != nil {
		s.engineError(w, ctx, err)
		return
	}
	// Render to memory (the renderSVG contract: a complete chart or a
	// clean 500, never a hybrid), write it, then spill the same bytes.
	body, err := hm.AppendSVG(nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	persist := storeKey != "" && ctx.Err() == nil
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a write failure here means the client left
	if persist {
		flushThenPersist(w, s.store, storeKey, body)
	}
}
