package dse

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/units"
)

// Sweep varies one knob of a configuration over a range and records how
// the F-1 outputs respond — the programmatic equivalent of dragging a
// Skyline slider, and the building block for custom characterization
// studies. Sweeps run on the exploration engine's chunk loop, inline
// or across a pool; the points land in a preallocated slice at their
// own indices, so the result is identical for every worker count.

// Knob identifies a sweepable configuration parameter.
type Knob int

const (
	// KnobPayload sweeps the payload mass (grams).
	KnobPayload Knob = iota
	// KnobSensorRange sweeps the sensing distance (meters).
	KnobSensorRange
	// KnobSensorRate sweeps the sensor frame rate (Hz).
	KnobSensorRate
	// KnobComputeRate sweeps the compute throughput (Hz).
	KnobComputeRate
)

// String implements fmt.Stringer.
func (k Knob) String() string {
	switch k {
	case KnobPayload:
		return "payload (g)"
	case KnobSensorRange:
		return "sensor range (m)"
	case KnobSensorRate:
		return "sensor rate (Hz)"
	case KnobComputeRate:
		return "compute rate (Hz)"
	default:
		return fmt.Sprintf("Knob(%d)", int(k))
	}
}

// apply returns cfg with the knob set to v.
func (k Knob) apply(cfg core.Config, v float64) core.Config {
	switch k {
	case KnobPayload:
		cfg.Payload = units.Grams(v)
	case KnobSensorRange:
		cfg.SensorRange = units.Meters(v)
	case KnobSensorRate:
		cfg.SensorRate = units.Hertz(v)
	case KnobComputeRate:
		cfg.ComputeRate = units.Hertz(v)
	}
	return cfg
}

// valid reports whether the knob is one of the defined constants.
func (k Knob) valid() bool { return k >= KnobPayload && k <= KnobComputeRate }

// SweepPoint is one sample of a sweep.
type SweepPoint struct {
	// Value is the knob setting (in the knob's natural unit).
	Value float64
	// Analysis is the full F-1 result at that setting.
	Analysis core.Analysis
}

// SweepResult is a completed sweep.
type SweepResult struct {
	Knob   Knob
	Points []SweepPoint
}

// sweepEval is a sweep's factored evaluation state: the base
// configuration's model partial and the three pipeline stages,
// precomputed once per sweep so each point recomputes only what the
// swept knob actually invalidates. A rate knob replaces one stage; the
// range knob re-derives the partial's knee/roof while reusing its
// a_max lookup (a calibrated-table segment search on real catalogs);
// the payload knob is the a_max lookup's own input, so it rebuilds the
// partial from the current configuration. Values are copied per point
// (no shared mutation), so parallel sweep workers can share one base.
type sweepEval struct {
	base                     core.ModelPartial
	name                     string
	sensor, compute, control core.Stage
}

// newSweepEval factors cfg once.
func newSweepEval(cfg core.Config) sweepEval {
	return sweepEval{
		base:    core.PrecomputeModel(cfg),
		name:    cfg.Name,
		sensor:  core.PrecomputeStage(cfg.SensorRate),
		compute: core.PrecomputeStage(cfg.ComputeRate),
		control: core.PrecomputeStage(cfg.ControlRate),
	}
}

// with returns a copy with knob k set to v, recomputing only the
// invalidated part. Every knob already applied to e survives: the
// payload rebuild starts from e's own assembled configuration.
func (e sweepEval) with(k Knob, v float64) sweepEval {
	switch k {
	case KnobPayload:
		e.base = core.PrecomputeModel(KnobPayload.apply(e.base.Config(e.name, e.sensor, e.compute, e.control), v))
	case KnobSensorRange:
		e.base = e.base.WithRange(units.Meters(v))
	case KnobSensorRate:
		e.sensor = core.PrecomputeStage(units.Hertz(v))
	case KnobComputeRate:
		e.compute = core.PrecomputeStage(units.Hertz(v))
	}
	return e
}

// analyze combines the current partial and stages — bit-identical to
// core.Analyze of the equivalently knob-applied configuration.
func (e *sweepEval) analyze() (core.Analysis, error) {
	return core.AnalyzeWithPartial(&e.base, e.name, e.sensor, e.compute, e.control)
}

// sampleAt returns the i-th of n samples between lo and hi, linearly or
// geometrically spaced.
func sampleAt(lo, hi float64, i, n int, logSpace bool) float64 {
	t := float64(i) / float64(n-1)
	if logSpace {
		return lo * math.Pow(hi/lo, t)
	}
	return lo + t*(hi-lo)
}

// Sweep evaluates the configuration with the knob set to n values
// spaced linearly (or geometrically when logSpace) between lo and hi —
// SweepContext without a cancellation context, on the default pool
// (inline).
//
//reprolint:ctxshim documented no-context convenience wrapper; request paths use SweepContext
func Sweep(cfg core.Config, knob Knob, lo, hi float64, n int, logSpace bool) (SweepResult, error) {
	return SweepContext(context.Background(), cfg, knob, lo, hi, n, logSpace, 0)
}

// SweepContext evaluates the configuration with the knob set to n
// values spaced linearly (or geometrically when logSpace) between lo
// and hi. workers sizes the chunk loop's pool as Explorer.Workers
// does: 0 picks PoolSize(nil, GOMAXPROCS), which runs inline on the
// caller's goroutine, and an explicit count — a server passes its
// per-request cap — is honored as given; the output is deterministic
// regardless. Cancelling ctx — a disconnected /sweep.svg client —
// stops the evaluation between points and returns ctx's error.
func SweepContext(ctx context.Context, cfg core.Config, knob Knob, lo, hi float64, n int, logSpace bool, workers int) (SweepResult, error) {
	if n < 2 {
		return SweepResult{}, fmt.Errorf("dse: sweep needs ≥2 points, got %d", n)
	}
	if hi <= lo {
		return SweepResult{}, fmt.Errorf("dse: sweep range [%v,%v] is empty", lo, hi)
	}
	if logSpace && lo <= 0 {
		return SweepResult{}, fmt.Errorf("dse: log sweep needs positive lower bound, got %v", lo)
	}
	if !knob.valid() {
		return SweepResult{}, fmt.Errorf("dse: unknown knob %v", knob)
	}
	points := make([]SweepPoint, n)
	pe := newSweepEval(cfg)
	eval := func(i int) error {
		v := sampleAt(lo, hi, i, n, logSpace)
		e := pe.with(knob, v)
		an, err := e.analyze()
		if err != nil {
			return fmt.Errorf("dse: sweep %v at %v: %w", knob, v, err)
		}
		points[i] = SweepPoint{Value: v, Analysis: an}
		return nil
	}
	if err := forEachParallel(ctx, n, workers, eval); err != nil {
		return SweepResult{}, err
	}
	return SweepResult{Knob: knob, Points: points}, nil
}

// forEachParallel runs eval(0..n-1) on the package's chunk runner
// (workers <= 0 picks PoolSize(nil, GOMAXPROCS): inline). Claims come
// from a tapered span table — whole grains while at least 2·workers of
// them remain, then spans shrinking toward single points — so a skewed
// sweep, some indices far slower than others, does not end on its
// costliest grain alone. Evaluations write only their own indices, so
// results are position-stable and identical for every worker count.
//
// Each claimed span is one chunk of the engine's chunk loop: the
// SiteDSEChunk fault site fires at its head, a panicking evaluation —
// corrupt model data, an armed fault — is recovered into the span's
// error instead of unwinding a pool goroutine and killing the process,
// and ctx is checked between points. The first error stops further
// claims (the result is discarded wholesale anyway). Claims are
// ascending and every claimed span runs to its own first failure, so
// the returned error is the lowest-indexed failure — the one a serial
// loop hits — or ctx's error when nothing failed.
func forEachParallel(ctx context.Context, n, workers int, eval func(i int) error) error {
	if workers <= 0 {
		workers = PoolSize(nil, runtime.GOMAXPROCS(0))
	}
	grain := chunkGrain(n, workers)
	end := func(start int) int { return start + min(max((n-start)/(2*workers), 1), grain) }
	count := 0
	for start := 0; start < n; start = end(start) {
		count++
	}
	slots := make([]spanSlot, 0, count)
	for start := 0; start < n; start = end(start) {
		slots = append(slots, spanSlot{span: span{start: start, end: end(start)}})
	}
	runChunks(ctx, len(slots), workers, 1, nil, func(k int, _ span) bool {
		slots[k].err = evalSpan(ctx, slots[k].span, eval)
		return slots[k].err == nil
	})
	// runChunks has joined every worker, so the error slots are settled.
	for _, sl := range slots {
		if sl.err != nil {
			return sl.err
		}
	}
	return ctx.Err()
}

// spanSlot is one claimable span of a sweep and its first error.
type spanSlot struct {
	span
	err error
}

// evalSpan runs eval over one claimed span: the sweep side of the
// chunk loop, with processChunk's fault site, panic recovery and
// between-point cancellation check.
func evalSpan(ctx context.Context, s span, eval func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dse: panic evaluating points [%d,%d): %v", s.start, s.end, r)
		}
	}()
	if err := faultinject.Fire(faultinject.SiteDSEChunk); err != nil {
		return fmt.Errorf("dse: points [%d,%d): %w", s.start, s.end, err)
	}
	done := ctx.Done()
	for i := s.start; i < s.end; i++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if err := eval(i); err != nil {
			return err
		}
	}
	return nil
}

// Velocities extracts the (knob value, safe velocity) series for
// plotting.
func (r SweepResult) Velocities() (xs, ys []float64) {
	xs = make([]float64, len(r.Points))
	ys = make([]float64, len(r.Points))
	for i, p := range r.Points {
		xs[i] = p.Value
		ys[i] = p.Analysis.SafeVelocity.MetersPerSecond()
	}
	return xs, ys
}

// BoundTransitions returns the knob values at which the bound
// classification changes — where a design crosses from compute-bound to
// physics-bound territory as the knob moves.
func (r SweepResult) BoundTransitions() []SweepPoint {
	var out []SweepPoint
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Analysis.Bound != r.Points[i-1].Analysis.Bound {
			out = append(out, r.Points[i])
		}
	}
	return out
}

// GridResult is a completed two-knob sweep: Cells[yi][xi] is the
// analysis at (Xs[xi], Ys[yi]).
type GridResult struct {
	XKnob, YKnob Knob
	Xs, Ys       []float64
	Cells        [][]core.Analysis
}

// VelocityGrid extracts the safe-velocity field for heatmap rendering:
// out[yi][xi] is the safe velocity at (Xs[xi], Ys[yi]).
func (g GridResult) VelocityGrid() [][]float64 {
	out := make([][]float64, len(g.Cells))
	for yi, row := range g.Cells {
		vs := make([]float64, len(row))
		for xi := range row {
			vs[xi] = row[xi].SafeVelocity.MetersPerSecond()
		}
		out[yi] = vs
	}
	return out
}

// GridSweep evaluates the configuration over the (xKnob × yKnob) grid
// — GridSweepContext without a cancellation context, on the default
// pool (inline).
//
//reprolint:ctxshim documented no-context convenience wrapper; request paths use GridSweepContext
func GridSweep(cfg core.Config, xKnob Knob, xLo, xHi float64, nx int, yKnob Knob, yLo, yHi float64, ny int) (GridResult, error) {
	return GridSweepContext(context.Background(), cfg, xKnob, xLo, xHi, nx, yKnob, yLo, yHi, ny, 0)
}

// GridSweepContext evaluates the configuration over the (xKnob ×
// yKnob) grid: nx samples of xKnob between xLo and xHi crossed with ny
// samples of yKnob between yLo and yHi, linearly spaced. The nx·ny
// analyses run on the chunk loop with deterministic placement — the
// characterization heatmap behind two-axis design studies. workers
// sizes its pool as in SweepContext: 0 runs inline, an explicit count
// (a server's per-request cap) is honored as given.
// Cancelling ctx — a disconnected /grid.svg client — stops the workers
// between cells instead of finishing the grid.
func GridSweepContext(ctx context.Context, cfg core.Config, xKnob Knob, xLo, xHi float64, nx int, yKnob Knob, yLo, yHi float64, ny int, workers int) (GridResult, error) {
	if err := faultinject.Fire(faultinject.SiteDSEPlan); err != nil {
		return GridResult{}, fmt.Errorf("dse: grid sweep: %w", err)
	}
	if nx < 2 || ny < 2 {
		return GridResult{}, fmt.Errorf("dse: grid sweep needs ≥2 points per axis, got %d×%d", nx, ny)
	}
	if xHi <= xLo || yHi <= yLo {
		return GridResult{}, fmt.Errorf("dse: grid sweep range [%v,%v]×[%v,%v] is empty", xLo, xHi, yLo, yHi)
	}
	if !xKnob.valid() || !yKnob.valid() {
		return GridResult{}, fmt.Errorf("dse: unknown knob in grid sweep (%v, %v)", xKnob, yKnob)
	}
	if xKnob == yKnob {
		return GridResult{}, fmt.Errorf("dse: grid sweep axes must differ, got %v twice", xKnob)
	}
	res := GridResult{XKnob: xKnob, YKnob: yKnob}
	res.Xs = make([]float64, nx)
	for i := range res.Xs {
		res.Xs[i] = sampleAt(xLo, xHi, i, nx, false)
	}
	res.Ys = make([]float64, ny)
	for i := range res.Ys {
		res.Ys[i] = sampleAt(yLo, yHi, i, ny, false)
	}
	res.Cells = make([][]core.Analysis, ny)
	cells := make([]core.Analysis, nx*ny)
	for yi := range res.Cells {
		res.Cells[yi] = cells[yi*nx : (yi+1)*nx]
	}
	// Factor once, apply the x knob once per distinct column value (not
	// once per cell), and recompute per cell only the y-knob part — the
	// same x-then-y application order as the direct path.
	pe := newSweepEval(cfg)
	xEvals := make([]sweepEval, nx)
	for xi := range xEvals {
		xEvals[xi] = pe.with(xKnob, res.Xs[xi])
	}
	eval := func(i int) error {
		xi, yi := i%nx, i/nx
		e := xEvals[xi].with(yKnob, res.Ys[yi])
		an, err := e.analyze()
		if err != nil {
			return fmt.Errorf("dse: grid sweep at (%v=%v, %v=%v): %w", xKnob, res.Xs[xi], yKnob, res.Ys[yi], err)
		}
		cells[i] = an
		return nil
	}
	if err := forEachParallel(ctx, nx*ny, workers, eval); err != nil {
		return GridResult{}, err
	}
	return res, nil
}
