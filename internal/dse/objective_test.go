package dse

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/units"
)

func TestNewObjectiveUnknownListsRegistry(t *testing.T) {
	cat := catalog.Default()
	_, err := NewObjective("warp", cat, 1)
	if err == nil {
		t.Fatal("unknown objective accepted")
	}
	for _, name := range ObjectiveNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestObjectiveColumnsWellFormed(t *testing.T) {
	cat := catalog.Default()
	for _, name := range ObjectiveNames() {
		ev, err := NewObjective(name, cat, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ev.Name() != name {
			t.Errorf("%s: Name() = %q", name, ev.Name())
		}
		cols := ev.Columns()
		if len(cols) == 0 {
			t.Fatalf("%s: no columns", name)
		}
		seen := map[string]bool{}
		for _, c := range cols {
			if c.Name == "" || seen[c.Name] {
				t.Errorf("%s: empty or duplicate column %q", name, c.Name)
			}
			seen[c.Name] = true
		}
	}
}

// TestObjectiveParallelMatchesSerial is the determinism hammer for the
// evaluator seam: for every registered objective, a parallel scored
// exploration (with and without the memo cache, across worker counts)
// must reproduce the serial slate element for element — including the
// Metrics columns, whose Monte-Carlo streams must not depend on
// scheduling. Run under -race this also exercises the evaluators'
// concurrent-safety contract.
func TestObjectiveParallelMatchesSerial(t *testing.T) {
	cat := catalog.Synthetic(3, 4, 4)
	space := synthSpace(cat)
	for _, name := range ObjectiveNames() {
		t.Run(name, func(t *testing.T) {
			ev, err := NewObjective(name, cat, 7)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Explorer{Catalog: cat, Space: space, Workers: 1, Objective: ev}.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != 3*4*4 {
				t.Fatalf("serial explored %d candidates, want %d", len(serial), 3*4*4)
			}
			for _, c := range serial {
				if len(c.Metrics) != len(ev.Columns()) {
					t.Fatalf("%s: %d metric columns, want %d", c.Name(), len(c.Metrics), len(ev.Columns()))
				}
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := Explorer{Catalog: cat, Space: space, Workers: workers, Objective: ev}.Enumerate()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				requireEqualCandidates(t, serial, par)
			}
		})
	}
}

// TestObjectiveSeedDiscriminates verifies the base seed reaches every
// candidate's Monte-Carlo run: the same space explored under different
// seeds yields different metrics, and re-running with the original
// seed still reproduces the original slate.
func TestObjectiveSeedDiscriminates(t *testing.T) {
	cat := catalog.Synthetic(2, 3, 3)
	space := synthSpace(cat)
	explore := func(seed int64) []Candidate {
		t.Helper()
		ev, err := NewObjective("mission.stochastic", cat, seed)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := Explorer{Catalog: cat, Space: space, Objective: ev}.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	a := explore(7)
	b := explore(8)
	diff := false
	for i := range a {
		for j := range a[i].Metrics {
			if a[i].Metrics[j] != b[i].Metrics[j] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("seed 7 and seed 8 produced identical Monte-Carlo metrics — seed not reaching the evaluator?")
	}
	requireEqualCandidates(t, a, explore(7))
}

// TestPoolSizeFollowsCostClass pins the execution policy: only the
// simulated objectives documented as heavy in docs/OBJECTIVES.md get
// the pool, and a default-sized Explorer follows the same rule while an
// explicit worker count is honored as given.
func TestPoolSizeFollowsCostClass(t *testing.T) {
	heavy := map[string]bool{
		"mission.battery":    true,
		"mission.flightsim":  true,
		"mission.stochastic": true,
	}
	cat := catalog.Default()
	if got := PoolSize(nil, 4); got != 1 {
		t.Errorf("PoolSize(nil, 4) = %d, want 1", got)
	}
	for _, name := range ObjectiveNames() {
		ev, err := NewObjective(name, cat, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if heavy[name] {
			want = 4
		}
		if ev.Heavy() != heavy[name] {
			t.Errorf("%s: Heavy() = %v, want %v", name, ev.Heavy(), heavy[name])
		}
		if got := PoolSize(ev, 4); got != want {
			t.Errorf("PoolSize(%s, 4) = %d, want %d", name, got, want)
		}
		if got := (Explorer{Objective: ev, Workers: 3}).workers(); got != 3 {
			t.Errorf("%s: explicit Workers 3 resolved to %d", name, got)
		}
	}
	if got := (Explorer{}).workers(); got != 1 {
		t.Errorf("plain Explorer with Workers 0 resolved to %d workers, want 1", got)
	}
}

// TestStochasticNaNRateScoresWorst feeds mission.stochastic a candidate
// with one NaN stage rate. NaN passes a "rate <= 0" guard and used to
// reach the simulator, whose NaN timeline left a zero worst interval:
// eff_rate_hz came out +Inf, the best possible score. It must score
// worst on every column instead.
func TestStochasticNaNRateScoresWorst(t *testing.T) {
	ev, err := NewObjective("mission.stochastic", catalog.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(ev.Columns()))
	worstMetrics(ev.Columns(), want)
	for stage := 0; stage < 3; stage++ {
		var cand Candidate
		cfg := &cand.Analysis.Config
		rates := [...]*units.Frequency{&cfg.SensorRate, &cfg.ComputeRate, &cfg.ControlRate}
		*rates[0], *rates[1], *rates[2] = units.Hertz(60), units.Hertz(178), units.Hertz(1000)
		*rates[stage] = units.Hertz(math.NaN())
		out := make([]float64, len(want))
		if err := ev.Evaluate(context.Background(), &cand, 1, out); err != nil {
			t.Fatalf("stage %d: %v", stage, err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Errorf("NaN rate on stage %d: %s = %v, want %v", stage, ev.Columns()[i].Name, out[i], want[i])
			}
		}
	}
}
