package dse

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
)

func pelicanDroNetConfig(t *testing.T) core.Config {
	t.Helper()
	cat := catalog.Default()
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSweepComputeRateFindsBoundTransition(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	res, err := Sweep(cfg, KnobComputeRate, 1, 200, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 60 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// Velocity is non-decreasing in compute rate.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Analysis.SafeVelocity < res.Points[i-1].Analysis.SafeVelocity {
			t.Fatalf("velocity decreased at %v Hz", res.Points[i].Value)
		}
	}
	// Somewhere between 1 and 200 Hz the design crosses compute-bound →
	// physics-bound (the knee is at 43 Hz).
	trans := res.BoundTransitions()
	if len(trans) == 0 {
		t.Fatal("no bound transition found")
	}
	v := trans[0].Value
	if v < 30 || v > 60 {
		t.Errorf("transition at %v Hz, want near the 43 Hz knee", v)
	}
}

func TestSweepPayloadMonotone(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	res, err := Sweep(cfg, KnobPayload, 80, 550, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := res.Velocities()
	if len(xs) != 40 || len(ys) != 40 {
		t.Fatal("series length wrong")
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] > ys[i-1]+1e-9 {
			t.Fatalf("velocity increased with payload at %v g", xs[i])
		}
	}
}

func TestSweepSensorRangeMonotone(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	res, err := Sweep(cfg, KnobSensorRange, 1, 20, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	_, ys := res.Velocities()
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Fatal("velocity decreased with sensor range")
		}
	}
}

func TestSweepLogSpacing(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	res, err := Sweep(cfg, KnobComputeRate, 1, 100, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Points[1].Value-10) > 1e-9 {
		t.Errorf("log midpoint = %v, want 10", res.Points[1].Value)
	}
}

func TestSweepErrors(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	if _, err := Sweep(cfg, KnobPayload, 0, 10, 1, false); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Sweep(cfg, KnobPayload, 10, 10, 5, false); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := Sweep(cfg, KnobComputeRate, 0, 10, 5, true); err == nil {
		t.Error("log sweep from 0 accepted")
	}
	if _, err := Sweep(cfg, Knob(99), 1, 10, 5, false); err == nil {
		t.Error("unknown knob accepted")
	}
	// Sweeping sensor range through zero produces an invalid config.
	if _, err := Sweep(cfg, KnobSensorRange, -1, 1, 5, false); err == nil {
		t.Error("invalid config point accepted")
	}
}

// serialSweep recomputes a sweep point-by-point with direct Analyze
// calls — the reference the parallel chunked path must reproduce.
func serialSweep(t *testing.T, cfg core.Config, knob Knob, lo, hi float64, n int, logSpace bool) []SweepPoint {
	t.Helper()
	pts := make([]SweepPoint, n)
	for i := 0; i < n; i++ {
		v := sampleAt(lo, hi, i, n, logSpace)
		an, err := core.Analyze(knob.apply(cfg, v))
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = SweepPoint{Value: v, Analysis: an}
	}
	return pts
}

func TestSweepChunkBoundaries(t *testing.T) {
	// Point counts straddling the serial threshold and the chunk-size
	// rounding: below the parallel cutoff, exactly at it, one past it,
	// an exact chunk multiple, and off-by-one around one.
	cfg := pelicanDroNetConfig(t)
	for _, n := range []int{2, 63, 64, 65, 127, 128, 129, 200} {
		res, err := Sweep(cfg, KnobComputeRate, 1, 200, n, true)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := serialSweep(t, cfg, KnobComputeRate, 1, 200, n, true)
		if len(res.Points) != n {
			t.Fatalf("n=%d: got %d points", n, len(res.Points))
		}
		for i := range want {
			if res.Points[i].Value != want[i].Value {
				t.Fatalf("n=%d point %d: value %v, want %v", n, i, res.Points[i].Value, want[i].Value)
			}
			if res.Points[i].Analysis.SafeVelocity != want[i].Analysis.SafeVelocity {
				t.Fatalf("n=%d point %d: velocity diverges from serial", n, i)
			}
		}
	}
}

func TestSweepParallelErrorIsFirstSerialError(t *testing.T) {
	// A payload sweep crossing into negative territory fails validation
	// partway through; the parallel path must report an error (the
	// lowest-chunk one) and return no partial result.
	cfg := pelicanDroNetConfig(t)
	res, err := Sweep(cfg, KnobPayload, -50, 550, 128, false)
	if err == nil {
		t.Fatal("invalid sweep accepted")
	}
	if len(res.Points) != 0 {
		t.Fatalf("failed sweep returned %d points", len(res.Points))
	}
}

func TestGridSweep(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	res, err := GridSweep(cfg, KnobComputeRate, 1, 200, 12, KnobPayload, 80, 550, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Xs) != 12 || len(res.Ys) != 11 || len(res.Cells) != 11 {
		t.Fatalf("grid shape %dx%d (%d rows)", len(res.Xs), len(res.Ys), len(res.Cells))
	}
	for yi, row := range res.Cells {
		if len(row) != 12 {
			t.Fatalf("row %d has %d cells", yi, len(row))
		}
		for xi, an := range row {
			want, err := core.Analyze(KnobPayload.apply(KnobComputeRate.apply(cfg, res.Xs[xi]), res.Ys[yi]))
			if err != nil {
				t.Fatal(err)
			}
			if an.SafeVelocity != want.SafeVelocity {
				t.Fatalf("cell (%d,%d) diverges from direct analysis", xi, yi)
			}
		}
	}
	// More compute never hurts; more payload never helps.
	for yi := range res.Cells {
		for xi := 1; xi < len(res.Xs); xi++ {
			if res.Cells[yi][xi].SafeVelocity < res.Cells[yi][xi-1].SafeVelocity {
				t.Fatal("velocity decreased with compute rate")
			}
		}
	}
	for xi := range res.Xs {
		for yi := 1; yi < len(res.Ys); yi++ {
			if res.Cells[yi][xi].SafeVelocity > res.Cells[yi-1][xi].SafeVelocity+1e-9 {
				t.Fatal("velocity increased with payload")
			}
		}
	}
}

func TestGridSweepErrors(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	if _, err := GridSweep(cfg, KnobComputeRate, 1, 200, 1, KnobPayload, 80, 550, 5); err == nil {
		t.Error("nx=1 accepted")
	}
	if _, err := GridSweep(cfg, KnobComputeRate, 200, 1, 5, KnobPayload, 80, 550, 5); err == nil {
		t.Error("empty x range accepted")
	}
	if _, err := GridSweep(cfg, KnobComputeRate, 1, 200, 5, KnobComputeRate, 1, 200, 5); err == nil {
		t.Error("same knob twice accepted")
	}
	if _, err := GridSweep(cfg, Knob(99), 1, 200, 5, KnobPayload, 80, 550, 5); err == nil {
		t.Error("unknown knob accepted")
	}
}

func TestKnobStrings(t *testing.T) {
	for knob, want := range map[Knob]string{
		KnobPayload:     "payload (g)",
		KnobSensorRange: "sensor range (m)",
		KnobSensorRate:  "sensor rate (Hz)",
		KnobComputeRate: "compute rate (Hz)",
		Knob(99):        "Knob(99)",
	} {
		if knob.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(knob), knob.String(), want)
		}
	}
}

func TestSweepContextCancelled(t *testing.T) {
	cat := catalog.Default()
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The chunk loop observes the dead context before evaluating,
	// inline and on the pool.
	if _, err := SweepContext(ctx, cfg, KnobPayload, 0, 500, 10, false, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("inline sweep: err = %v, want context.Canceled", err)
	}
	if _, err := SweepContext(ctx, cfg, KnobPayload, 0, 500, 500, false, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("pooled sweep: err = %v, want context.Canceled", err)
	}
	if _, err := GridSweepContext(ctx, cfg, KnobPayload, 0, 500, 20, KnobComputeRate, 1, 100, 20, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("grid sweep: err = %v, want context.Canceled", err)
	}
}

func TestSweepContextMatchesSweep(t *testing.T) {
	cat := catalog.Default()
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Sweep(cfg, KnobComputeRate, 1, 200, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	// A capped pool (a server's per-request workers clamp) must produce
	// the identical result.
	capped, err := SweepContext(context.Background(), cfg, KnobComputeRate, 1, 200, 100, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(capped.Points, plain.Points) {
		t.Error("workers=1 sweep diverges from default pool")
	}
	scoped, err := SweepContext(context.Background(), cfg, KnobComputeRate, 1, 200, 100, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, scoped) {
		t.Error("SweepContext diverges from Sweep")
	}
}

// TestSweepChunkFaults arms the chunk loop's fault site on sweeps and
// grids: an injected error and an injected panic — on every span, or
// only on the first two fired — must each surface as an error with no
// partial result, never a crash, inline and on the pool.
func TestSweepChunkFaults(t *testing.T) {
	cfg := pelicanDroNetConfig(t)
	faults := map[string]faultinject.Fault{
		"error":         {Err: errors.New("injected chunk fault")},
		"panic":         {Panic: true},
		"error/times=2": {Err: errors.New("injected chunk fault"), Times: 2},
		"panic/times=2": {Panic: true, Times: 2},
	}
	for name, f := range faults {
		for _, workers := range []int{1, 2, 4} {
			disarm := faultinject.Enable(faultinject.SiteDSEChunk, f)
			res, err := SweepContext(context.Background(), cfg, KnobComputeRate, 1, 200, 300, true, workers)
			if err == nil || res.Points != nil {
				t.Errorf("%s, workers=%d: sweep = (%d points, %v), want an error and no points", name, workers, len(res.Points), err)
			}
			disarm()
			disarm = faultinject.Enable(faultinject.SiteDSEChunk, f)
			grid, err := GridSweepContext(context.Background(), cfg, KnobPayload, 0, 500, 20, KnobComputeRate, 1, 100, 15, workers)
			if err == nil || grid.Cells != nil {
				t.Errorf("%s, workers=%d: grid sweep = (%d rows, %v), want an error and no cells", name, workers, len(grid.Cells), err)
			}
			disarm()
		}
	}
	// Disarmed, the same runs succeed.
	if _, err := SweepContext(context.Background(), cfg, KnobComputeRate, 1, 200, 300, true, 4); err != nil {
		t.Fatalf("disarmed sweep: %v", err)
	}
}
