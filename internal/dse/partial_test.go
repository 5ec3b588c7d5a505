package dse

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/units"
)

// TestPlanPartialMatchesDirectAnalyze is the engine half of the
// partial-vs-direct equality hammer: every candidate the factored plan
// produces must carry the bit-identical analysis a from-scratch
// resolve + core.Analyze of its own Selection yields — across the real
// catalog (default and named sensors), the calibrated-table
// algorithm-heavy fixture and the skewed fixture.
func TestPlanPartialMatchesDirectAnalyze(t *testing.T) {
	cases := []struct {
		name  string
		cat   *catalog.Catalog
		space Space
	}{
		{
			name: "default-catalog-with-sensors",
			cat:  catalog.Default(),
			space: Space{
				UAVs:       []string{catalog.UAVAscTecPelican, catalog.UAVDJISpark},
				Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2, catalog.ComputeRasPi4},
				Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet},
				Sensors:    []string{"", catalog.SensorRGBD, catalog.SensorNanoCam},
			},
		},
		{name: "synthetic", cat: catalog.Synthetic(3, 5, 4)},
		{name: "algo-heavy-calibrated", cat: catalog.SyntheticAlgoHeavy(2, 3, 12)},
		{name: "skewed", cat: catalog.SyntheticSkewed(3, 4, 4, 50)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			space := tc.space
			if len(space.UAVs) == 0 {
				space = synthSpace(tc.cat)
			}
			cands, err := Explorer{Catalog: tc.cat, Space: space, Workers: 1}.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) == 0 {
				t.Fatal("empty exploration")
			}
			for i, cand := range cands {
				r, err := tc.cat.Resolve(cand.Selection)
				if err != nil {
					t.Fatalf("candidate %d: re-resolving its own selection: %v", i, err)
				}
				want, err := core.Analyze(r.Config())
				if err != nil {
					t.Fatalf("candidate %d: direct analysis: %v", i, err)
				}
				if !reflect.DeepEqual(cand.Analysis, want) {
					t.Fatalf("candidate %d (%s): partial-evaluated analysis diverges from direct:\n got %+v\nwant %+v",
						i, cand.Name(), cand.Analysis, want)
				}
			}
		})
	}
}

// TestParallelMatchesSerialAlgoHeavy is the -race determinism hammer
// over the algorithm-heavy calibrated fixture: shared model partials
// must keep parallel output byte-identical to the serial scan for
// every worker count and grain.
func TestParallelMatchesSerialAlgoHeavy(t *testing.T) {
	cat := catalog.SyntheticAlgoHeavy(2, 4, 40)
	space := synthSpace(cat)
	serial, err := Explorer{Catalog: cat, Space: space, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 2*4*40 {
		t.Fatalf("serial explored %d candidates, want %d", len(serial), 2*4*40)
	}
	for _, workers := range []int{2, 4, 16} {
		for _, grain := range []int{0, 1, 13, 512} {
			par, err := Explorer{Catalog: cat, Space: space, Workers: workers, ChunkSize: grain}.Enumerate()
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			requireEqualCandidates(t, serial, par)
		}
	}
}

// sweepTestConfig is a calibrated-table configuration, so the sweep
// partial reuse (and WithRange's a_max reuse) is exercised against the
// model whose per-point cost the factoring exists to avoid.
func sweepTestConfig(t *testing.T) core.Config {
	t.Helper()
	cat := catalog.SyntheticAlgoHeavy(2, 3, 4)
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV: "synth-uav-001", Compute: "synth-soc-002", Algorithm: "synth-net-003"})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestSweepPartialMatchesDirect: for every knob — including the
// payload knob's partial rebuild — each sweep point must be
// bit-identical to a direct Analyze of the knob-applied configuration,
// inline and on the pool.
func TestSweepPartialMatchesDirect(t *testing.T) {
	cfg := sweepTestConfig(t)
	knobs := []struct {
		knob   Knob
		lo, hi float64
		log    bool
	}{
		{KnobComputeRate, 0.5, 500, true},
		{KnobSensorRate, 1, 240, false},
		{KnobSensorRange, 0.5, 30, true},
		{KnobPayload, 20, 900, false},
	}
	for _, k := range knobs {
		t.Run(k.knob.String(), func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					const n = 97
					res, err := SweepContext(context.Background(), cfg, k.knob, k.lo, k.hi, n, k.log, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i, pt := range res.Points {
						want, err := core.Analyze(k.knob.apply(cfg, pt.Value))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(pt.Analysis, want) {
							t.Fatalf("point %d (%v=%v): sweep analysis diverges from direct", i, k.knob, pt.Value)
						}
					}
				})
			}
		})
	}
}

// TestGridSweepPartialMatchesDirect covers the two-knob combinations:
// rate×rate, rate×range (WithRange per cell) and payload on either
// axis. A payload rebuild must keep the knob already applied to its
// column (range, or a rate), so payload is paired with each kind.
func TestGridSweepPartialMatchesDirect(t *testing.T) {
	cfg := sweepTestConfig(t)
	combos := []struct {
		x, y Knob
	}{
		{KnobComputeRate, KnobSensorRate},
		{KnobComputeRate, KnobSensorRange},
		{KnobSensorRange, KnobSensorRate},
		{KnobPayload, KnobComputeRate},
		{KnobComputeRate, KnobPayload},
		{KnobSensorRange, KnobPayload},
		{KnobPayload, KnobSensorRange},
		{KnobSensorRate, KnobPayload},
	}
	for _, c := range combos {
		t.Run(c.x.String()+"/"+c.y.String(), func(t *testing.T) {
			res, err := GridSweepContext(context.Background(), cfg, c.x, 1, 200, 12, c.y, 2, 100, 11, 4)
			if err != nil {
				t.Fatal(err)
			}
			for yi := range res.Cells {
				for xi := range res.Cells[yi] {
					direct := c.y.apply(c.x.apply(cfg, res.Xs[xi]), res.Ys[yi])
					want, err := core.Analyze(direct)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Cells[yi][xi], want) {
						t.Fatalf("cell (%d,%d): grid analysis diverges from direct", xi, yi)
					}
				}
			}
		})
	}
}

// TestSyntheticAlgoHeavyDeterministic: two constructions are identical
// — the fixture contract the benches rely on.
func TestSyntheticAlgoHeavyDeterministic(t *testing.T) {
	a, err := Enumerate(catalog.SyntheticAlgoHeavy(2, 3, 10), synthSpace(catalog.SyntheticAlgoHeavy(2, 3, 10)), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Enumerate(catalog.SyntheticAlgoHeavy(2, 3, 10), synthSpace(catalog.SyntheticAlgoHeavy(2, 3, 10)), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCandidates(t, a, b)
	if len(a) != 2*3*10 {
		t.Fatalf("algo-heavy fixture yields %d candidates, want %d", len(a), 2*3*10)
	}
	// The calibrated tables must actually be in play (not PitchLimited).
	u, err := catalog.SyntheticAlgoHeavy(2, 3, 10).UAV("synth-uav-000")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := u.Accel.(interface {
		At(units.Mass) units.Acceleration
	}); !ok {
		t.Fatalf("algo-heavy UAV carries %T, want a calibrated table", u.Accel)
	}
}
