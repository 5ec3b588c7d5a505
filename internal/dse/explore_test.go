package dse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/units"
)

func synthSpace(cat *catalog.Catalog) Space {
	return Space{
		UAVs:       cat.UAVNames(),
		Computes:   cat.ComputeNames(),
		Algorithms: cat.AlgorithmNames(),
	}
}

// requireEqualCandidates asserts element-for-element equality, with a
// useful message on the first divergence.
func requireEqualCandidates(t *testing.T, want, got []Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("candidate count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("candidate %d differs:\nwant %+v\ngot  %+v", i, want[i], got[i])
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	cat := catalog.Synthetic(4, 9, 7)
	space := synthSpace(cat)
	serial, err := Explorer{Catalog: cat, Space: space, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 4*9*7 {
		t.Fatalf("serial explored %d candidates, want %d", len(serial), 4*9*7)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		for _, chunk := range []int{0, 1, 7, 64, 10000} {
			par, err := Explorer{Catalog: cat, Space: space, Workers: workers, ChunkSize: chunk}.Enumerate()
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			requireEqualCandidates(t, serial, par)
		}
	}
}

func TestParallelMatchesSerialWithConstraints(t *testing.T) {
	cat := catalog.Synthetic(3, 8, 8)
	space := synthSpace(cat)
	cons := Constraints{MaxPower: units.Watts(20), MinVelocity: units.MetersPerSecond(1)}
	serial, err := Explorer{Catalog: cat, Space: space, Constraints: cons, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 || len(serial) == 3*8*8 {
		t.Fatalf("constraints should prune some but not all (kept %d)", len(serial))
	}
	par, err := Explorer{Catalog: cat, Space: space, Constraints: cons, Workers: 6, ChunkSize: 5}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCandidates(t, serial, par)
}

func TestParallelMatchesSerialWithSensorAxis(t *testing.T) {
	cat := catalog.Default()
	space := Space{
		UAVs:       []string{catalog.UAVAscTecPelican, catalog.UAVDJISpark},
		Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2, catalog.ComputeRasPi4},
		Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet},
		Sensors:    []string{"", catalog.SensorRGBD, catalog.SensorNanoCam},
	}
	serial, err := Explorer{Catalog: cat, Space: space, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explorer{Catalog: cat, Space: space, Workers: 4, ChunkSize: 3}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCandidates(t, serial, par)
	// The sensor axis multiplies the space.
	noSensors := space
	noSensors.Sensors = nil
	base, err := Enumerate(cat, noSensors, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3*len(base) {
		t.Fatalf("sensor axis: got %d, want %d", len(serial), 3*len(base))
	}
}

func TestExplorerMatchesLegacyEnumerate(t *testing.T) {
	// The package-level Enumerate and the fig15 expectations from the
	// serial engine still hold (14 buildable pairs, see dse_test.go).
	cat := catalog.Default()
	cands, err := Enumerate(cat, fig15Space(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Explorer{Catalog: cat, Space: fig15Space(), Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCandidates(t, serial, cands)
}

func TestCandidatesStreamMatchesEnumerate(t *testing.T) {
	cat := catalog.Synthetic(3, 7, 5)
	space := synthSpace(cat)
	for _, workers := range []int{1, 4} {
		e := Explorer{Catalog: cat, Space: space, Workers: workers, ChunkSize: 10}
		want, err := e.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		var got []Candidate
		for cand, err := range e.Candidates(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, cand)
		}
		requireEqualCandidates(t, want, got)
	}
}

func TestCandidatesEarlyBreak(t *testing.T) {
	cat := catalog.Synthetic(3, 7, 5)
	e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: 4, ChunkSize: 4}
	full, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []int{0, 1, 5, 17, 50} {
		var got []Candidate
		for cand, err := range e.Candidates(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, cand)
			if len(got) == stop {
				break
			}
		}
		if stop > 0 && len(got) != stop {
			t.Fatalf("early break at %d collected %d", stop, len(got))
		}
		requireEqualCandidates(t, full[:len(got)], got)
	}
}

func TestExplorerUnknownAxisValues(t *testing.T) {
	cat := catalog.Default()
	base := fig15Space()
	for name, mutate := range map[string]func(*Space){
		"uav":     func(s *Space) { s.UAVs = []string{"bogus"} },
		"compute": func(s *Space) { s.Computes = []string{"bogus"} },
		"sensor":  func(s *Space) { s.Sensors = []string{"bogus"} },
	} {
		sp := base
		mutate(&sp)
		if _, err := Enumerate(cat, sp, Constraints{}); err == nil {
			t.Errorf("unknown %s accepted", name)
		}
		// Streaming surfaces the same error.
		e := Explorer{Catalog: cat, Space: sp, Workers: 4}
		var sawErr bool
		for _, err := range e.Candidates(context.Background()) {
			if err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Errorf("unknown %s not surfaced by Candidates", name)
		}
	}
}

func TestExplorerUnknownAlgorithmErrors(t *testing.T) {
	// Validation parity with the other axes: an algorithm name the
	// catalog has never registered is a plan error, not a silently
	// empty (or silently shrunken) exploration — previously a typo'd
	// algorithm with no perf rows skipped the existence check entirely.
	cat := catalog.Default()
	sp := fig15Space()
	sp.Algorithms = append(sp.Algorithms, "never-measured")
	if _, err := Enumerate(cat, sp, Constraints{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Streaming surfaces the same error.
	var sawErr bool
	for _, err := range (Explorer{Catalog: cat, Space: sp, Workers: 4}).Candidates(context.Background()) {
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("unknown algorithm not surfaced by Candidates")
	}
}

func TestExplorerMeasurelessAlgorithmSkippedSilently(t *testing.T) {
	// A REGISTERED algorithm that merely lacks perf-table rows on the
	// requested computes is not a buildable system: its combinations
	// are skipped without shrinking or failing the rest of the space.
	cat := catalog.Default()
	cat.AddAlgorithm(catalog.Algorithm{Name: "registered-unmeasured", Paradigm: catalog.EndToEnd})
	sp := fig15Space()
	sp.Algorithms = append(sp.Algorithms, "registered-unmeasured")
	with, err := Enumerate(cat, sp, Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Enumerate(cat, fig15Space(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCandidates(t, without, with)
}

func TestExplorerUnregisteredAlgorithmWithPerfRowErrors(t *testing.T) {
	// A perf measurement for an algorithm that was never registered is
	// a catalog inconsistency the serial engine surfaced on the first
	// analysis; the plan surfaces it up front.
	cat := catalog.Default()
	cat.SetPerf("ghost-net", catalog.ComputeTX2, units.Hertz(100))
	sp := fig15Space()
	sp.Algorithms = []string{"ghost-net"}
	if _, err := Enumerate(cat, sp, Constraints{}); err == nil {
		t.Fatal("unregistered algorithm with perf row accepted")
	}
}

func TestExplorerChunkBoundariesCoverSpace(t *testing.T) {
	// Chunk sizes that divide the space exactly, leave a remainder of
	// one, and exceed the space must all visit every candidate once.
	cat := catalog.Synthetic(2, 5, 5) // 50 candidates
	space := synthSpace(cat)
	want, err := Explorer{Catalog: cat, Space: space, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 50 {
		t.Fatalf("space size %d, want 50", len(want))
	}
	for _, chunk := range []int{1, 2, 5, 7, 25, 49, 50, 51, 1000} {
		got, err := Explorer{Catalog: cat, Space: space, Workers: 3, ChunkSize: chunk}.Enumerate()
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		requireEqualCandidates(t, want, got)
	}
}

func TestExplorerLargeSpaceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large space")
	}
	cat := catalog.Synthetic(5, 16, 16) // 1280 candidates
	space := synthSpace(cat)
	serial, err := Explorer{Catalog: cat, Space: space, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 1280 {
		t.Fatalf("space size %d, want 1280", len(serial))
	}
	par, err := Explorer{Catalog: cat, Space: space, Workers: 8}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCandidates(t, serial, par)
}

func TestExplorerDeterministicAcrossRuns(t *testing.T) {
	cat := catalog.Synthetic(3, 6, 6)
	e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: 5, ChunkSize: 3}
	first, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := e.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		requireEqualCandidates(t, first, again)
	}
}

func TestExplorerNamePrecomputation(t *testing.T) {
	// Candidate names must match what catalog.BuildConfig renders.
	cat := catalog.Default()
	cands, err := Enumerate(cat, fig15Space(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		want := fmt.Sprintf("%s + %s + %s", c.Selection.UAV, c.Selection.Algorithm, c.Selection.Compute)
		if c.Name() != want {
			t.Fatalf("name %q, want %q", c.Name(), want)
		}
		cfg, err := cat.BuildConfig(c.Selection)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cfg, c.Analysis.Config) {
			t.Fatalf("explorer config diverges from BuildConfig for %s", c.Name())
		}
	}
}

// goroutineCount waits for transient goroutines to wind down and
// returns the stable count.
func goroutineCount(t *testing.T, baseline int, within time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(within)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestCandidatesEarlyBreakLeavesNoGoroutines is the leak regression for
// the early-exit streaming path: breaking out of Candidates after the
// first element must wind the worker pool down to baseline — no worker
// may stay blocked on a handoff channel, and in-flight chunks must be
// cancelled rather than drained.
func TestCandidatesEarlyBreakLeavesNoGoroutines(t *testing.T) {
	cat := catalog.Synthetic(5, 16, 16) // 1280 candidates
	e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: 8, ChunkSize: 16}
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		for cand, err := range e.Candidates(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			_ = cand
			break // early exit after the first candidate
		}
	}
	if n := goroutineCount(t, baseline, 2*time.Second); n > baseline {
		t.Fatalf("goroutines after early break: %d, baseline %d — pool leaked workers", n, baseline)
	}
}

func TestCandidatesContextCancel(t *testing.T) {
	cat := catalog.Synthetic(4, 10, 8) // 320 candidates
	for _, workers := range []int{1, 6} {
		e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: workers, ChunkSize: 8}
		ctx, cancel := context.WithCancel(context.Background())
		var got []Candidate
		var sawErr error
		for cand, err := range e.Candidates(ctx) {
			if err != nil {
				sawErr = err
				break
			}
			got = append(got, cand)
			if len(got) == 3 {
				cancel()
			}
		}
		cancel()
		if sawErr == nil {
			t.Fatalf("workers=%d: cancelled exploration completed without error (yielded %d)", workers, len(got))
		}
		if !errors.Is(sawErr, context.Canceled) {
			t.Fatalf("workers=%d: error = %v, want context.Canceled", workers, sawErr)
		}
		// The candidates yielded before cancellation are still the
		// canonical prefix.
		full, err := Explorer{Catalog: cat, Space: e.Space, Workers: 1}.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		requireEqualCandidates(t, full[:len(got)], got)
	}
}

func TestExploreContextCancelled(t *testing.T) {
	cat := catalog.Synthetic(4, 10, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead
	for _, workers := range []int{1, 6} {
		e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: workers, ChunkSize: 8}
		cands, err := e.ExploreContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if cands != nil {
			t.Fatalf("workers=%d: cancelled exploration returned %d candidates", workers, len(cands))
		}
	}
}

func TestExploreContextMatchesEnumerate(t *testing.T) {
	cat := catalog.Synthetic(3, 7, 5)
	e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: 4, ChunkSize: 10}
	want, err := e.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ExploreContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	requireEqualCandidates(t, want, got)
}

// TestCompiledMatchesUncompiled runs one compiled space under several
// views — constraints, an objective, worker counts — and requires each
// run to equal an Explorer that compiles Catalog and Space itself. The
// compiled space is shared read-only by every run, as the Skyline
// server shares it across requests.
func TestCompiledMatchesUncompiled(t *testing.T) {
	cat := catalog.Default()
	space := synthSpace(cat)
	space.Sensors = append([]string{""}, cat.SensorNames()...)
	comp, err := Compile(cat, space)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Len() != comp.Cells()*comp.Sensors() || comp.Sensors() != len(space.Sensors) {
		t.Fatalf("Len %d, Cells %d, Sensors %d", comp.Len(), comp.Cells(), comp.Sensors())
	}
	thermal, err := NewObjective("mission.thermal", cat, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range []Explorer{
		{},
		{Constraints: Constraints{MaxPower: units.Watts(10), MinVelocity: units.MetersPerSecond(2)}},
		{Objective: thermal},
		{Objective: thermal, Constraints: Constraints{MaxPayload: units.Grams(300)}},
	} {
		for _, workers := range []int{1, 3} {
			fresh := view
			fresh.Catalog, fresh.Space, fresh.Workers = cat, space, workers
			want, err := fresh.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			compiled := view
			compiled.Compiled, compiled.Workers = comp, workers
			got, err := compiled.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			requireEqualCandidates(t, want, got)
		}
	}
}

// TestCandidateIndexMapsToCell checks that Candidate.Index is the
// canonical position — the identity on an unconstrained run — and that
// it maps every candidate, including those that survive constraints,
// TopK and ParetoFront, back to the compiled cell whose name and
// selection it carries.
func TestCandidateIndexMapsToCell(t *testing.T) {
	cat := catalog.Default()
	space := synthSpace(cat)
	space.Sensors = append([]string{""}, cat.SensorNames()...)
	comp, err := Compile(cat, space)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Explorer{Compiled: comp, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != comp.Len() {
		t.Fatalf("%d candidates, want Len %d", len(all), comp.Len())
	}
	for i, c := range all {
		if c.Index != i {
			t.Fatalf("candidate %d has Index %d", i, c.Index)
		}
	}
	constrained, err := Explorer{Catalog: cat, Space: space, Constraints: Constraints{MaxPower: units.Watts(10)}, Workers: 2}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	front, err := ParetoFront(all, MaxVelocity, MinPower)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range [][]Candidate{constrained, TopK(all, MinPayload, 10), Rank(all, Balance), front} {
		for _, c := range set {
			name, sel := comp.Cell(c.Index / comp.Sensors())
			sel.Sensor = c.Selection.Sensor
			if name != c.Name() || sel != c.Selection {
				t.Fatalf("Index %d maps to cell %q %+v, candidate is %q %+v", c.Index, name, sel, c.Name(), c.Selection)
			}
			if !reflect.DeepEqual(c, all[c.Index]) {
				t.Fatalf("Index %d: candidate differs from the canonical one at that index", c.Index)
			}
		}
	}
}
