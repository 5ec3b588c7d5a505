package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func jitterPipeline(j float64) []JitterStage {
	return []JitterStage{
		{Stage: StageHz("sensor", units.Hertz(60)), Jitter: j},
		{Stage: StageHz("compute", units.Hertz(178)), Jitter: j},
		{Stage: StageHz("control", units.Hertz(1000)), Jitter: 0},
	}
}

func TestSimulateJitterZeroMatchesDeterministic(t *testing.T) {
	res, err := SimulateJitter(jitterPipeline(0), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Without jitter the mean rate equals the Eq. 3 rate (60 Hz).
	if math.Abs(res.MeanThroughput.Hertz()-60) > 0.6 {
		t.Errorf("jitterless throughput = %v, want 60", res.MeanThroughput)
	}
	// And the latency distribution is a point mass: p50 == p99.
	if math.Abs(res.P50Latency.Seconds()-res.P99Latency.Seconds()) > 1e-9 {
		t.Errorf("jitterless p50 %v != p99 %v", res.P50Latency, res.P99Latency)
	}
}

func TestSimulateJitterDegradesWorstCase(t *testing.T) {
	res, err := SimulateJitter(jitterPipeline(0.3), 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The mean rate stays near 60 Hz but the worst interval is longer
	// than the mean period — the conservative action rate drops.
	if res.MeanThroughput.Hertz() < 50 || res.MeanThroughput.Hertz() > 70 {
		t.Errorf("mean throughput = %v, want ≈60", res.MeanThroughput)
	}
	eff := res.EffectiveActionRate().Hertz()
	if eff >= res.MeanThroughput.Hertz() {
		t.Errorf("effective rate %v not below mean %v under jitter", eff, res.MeanThroughput)
	}
	// ±30 % jitter on a 16.7 ms stage: worst interval below 1.3× mean
	// period... must be within the jitter bound (≤ 1.3/0.7 of mean).
	if eff < 60*0.7/1.3 {
		t.Errorf("effective rate %v implausibly low", eff)
	}
	// Tail latency exceeds the median.
	if res.P99Latency <= res.P50Latency {
		t.Errorf("p99 %v not above p50 %v", res.P99Latency, res.P50Latency)
	}
}

func TestSimulateJitterDeterministicBySeed(t *testing.T) {
	a, err := SimulateJitter(jitterPipeline(0.2), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateJitter(jitterPipeline(0.2), 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed differs: %+v vs %+v", a, b)
	}
	c, err := SimulateJitter(jitterPipeline(0.2), 1000, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

func TestSimulateJitterValidation(t *testing.T) {
	if _, err := SimulateJitter(nil, 100, 1); err == nil {
		t.Error("empty stages accepted")
	}
	if _, err := SimulateJitter(jitterPipeline(0.2), 5, 1); err == nil {
		t.Error("tiny n accepted")
	}
	bad := jitterPipeline(0.2)
	bad[0].Jitter = 1.5
	if _, err := SimulateJitter(bad, 100, 1); err == nil {
		t.Error("jitter ≥ 1 accepted")
	}
	dead := jitterPipeline(0.2)
	dead[1].Stage = StageHz("compute", 0)
	if _, err := SimulateJitter(dead, 100, 1); err == nil {
		t.Error("infinite-latency stage accepted")
	}
	zero := jitterPipeline(0.2)
	zero[1].Stage = Stage{Name: "compute", Latency: 0}
	if _, err := SimulateJitter(zero, 100, 1); err == nil {
		t.Error("zero-latency stage accepted")
	}
	// NaN fails every ordered comparison, so a range check written as
	// "reject if out of range" lets it through: a NaN stage then yields
	// NaN percentiles and a zero worst interval, i.e. an infinite
	// effective action rate.
	nanLat := jitterPipeline(0.2)
	nanLat[1].Stage = Stage{Name: "compute", Latency: units.Seconds(math.NaN())}
	if _, err := SimulateJitter(nanLat, 100, 1); err == nil {
		t.Error("NaN-latency stage accepted")
	}
	nanJitter := jitterPipeline(0.2)
	nanJitter[0].Jitter = math.NaN()
	if _, err := SimulateJitter(nanJitter, 100, 1); err == nil {
		t.Error("NaN jitter accepted")
	}
	for _, stages := range [][]JitterStage{nanLat, nanJitter} {
		if _, err := simulateJitterSorted(stages, 100, 1); err == nil {
			t.Error("oracle accepted a NaN stage")
		}
	}
}

// More jitter never improves the worst interval (monotone degradation).
func TestJitterMonotoneWorstCaseProperty(t *testing.T) {
	prop := func(j1, j2 float64) bool {
		a := math.Mod(math.Abs(j1), 0.5)
		b := math.Mod(math.Abs(j2), 0.5)
		if a > b {
			a, b = b, a
		}
		ra, err := SimulateJitter(jitterPipeline(a), 2000, 11)
		if err != nil {
			return false
		}
		rb, err := SimulateJitter(jitterPipeline(b), 2000, 11)
		if err != nil {
			return false
		}
		// Allow a hair of slack: different jitter scales resample the
		// same RNG stream.
		return rb.WorstInterval >= ra.WorstInterval-units.Seconds(1e-4)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(vals, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(vals, 0.99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
	if p := percentile(vals, 0.01); p != 1 {
		t.Errorf("p1 = %v, want 1", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v, want 0", p)
	}
}

// simulateJitterSorted is the reference implementation the selection-
// based SimulateJitterContext must match bit for bit: it keeps every
// output time and sorts the latencies to read the two percentiles.
func simulateJitterSorted(stages []JitterStage, n int, seed int64) (StochasticResult, error) {
	if len(stages) == 0 {
		return StochasticResult{}, fmt.Errorf("pipeline: no stages")
	}
	if n < 20 {
		return StochasticResult{}, fmt.Errorf("pipeline: jitter simulation needs ≥20 samples, got %d", n)
	}
	for _, s := range stages {
		if lat := s.Latency.Seconds(); !(lat > 0) || math.IsInf(lat, 1) {
			return StochasticResult{}, fmt.Errorf("pipeline: stage %q needs a positive finite latency", s.Name)
		}
		if !(s.Jitter >= 0 && s.Jitter < 1) {
			return StochasticResult{}, fmt.Errorf("pipeline: stage %q jitter must be in [0,1), got %v", s.Name, s.Jitter)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ns := len(stages)
	prev := make([]float64, ns+1)
	cur := make([]float64, ns+1)
	warm := n / 10
	var outs []float64
	var latencies []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			cur[0] = prev[1]
		} else {
			cur[0] = 0
		}
		entry := cur[0]
		for i := 0; i < ns; i++ {
			mean := stages[i].Latency.Seconds()
			lat := mean * (1 + stages[i].Jitter*(2*rng.Float64()-1))
			done := cur[i] + lat
			if i < ns-1 && prev[i+2] > done {
				done = prev[i+2] // blocked by the next stage
			}
			cur[i+1] = done
		}
		prev, cur = cur, prev
		if k >= warm {
			outs = append(outs, prev[ns])
			latencies = append(latencies, prev[ns]-entry)
		}
	}
	res := StochasticResult{}
	if len(outs) >= 2 {
		span := outs[len(outs)-1] - outs[0]
		if span > 0 {
			res.MeanThroughput = units.Hertz(float64(len(outs)-1) / span)
		}
		worst := 0.0
		for i := 1; i < len(outs); i++ {
			if gap := outs[i] - outs[i-1]; gap > worst {
				worst = gap
			}
		}
		res.WorstInterval = units.Seconds(worst)
	}
	sort.Float64s(latencies)
	res.P50Latency = units.Seconds(percentile(latencies, 0.50))
	res.P99Latency = units.Seconds(percentile(latencies, 0.99))
	return res, nil
}

// percentile returns the p-quantile of sorted values (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// oracleStageRates are the stage rates (Hz) the differential tests
// draw from: a pipeline of k stages uses the first k, so every depth
// has a different bottleneck position.
var oracleStageRates = []float64{60, 178, 1000, 30}

func oracleStages(k int, jitters ...float64) []JitterStage {
	stages := make([]JitterStage, k)
	for i := range stages {
		stages[i] = JitterStage{Stage: StageHz(fmt.Sprintf("s%d", i), units.Hertz(oracleStageRates[i])), Jitter: jitters[i%len(jitters)]}
	}
	return stages
}

// requireMatchesOracle runs both implementations and fails unless they
// agree on the error and on every result field, bit for bit.
func requireMatchesOracle(t *testing.T, stages []JitterStage, n int, seed int64) {
	t.Helper()
	got, gotErr := SimulateJitterContext(context.Background(), stages, n, seed)
	want, wantErr := simulateJitterSorted(stages, n, seed)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("n=%d seed=%d: error %v, oracle error %v", n, seed, gotErr, wantErr)
	}
	fields := []struct {
		name      string
		got, want float64
	}{
		{"MeanThroughput", got.MeanThroughput.Hertz(), want.MeanThroughput.Hertz()},
		{"P50Latency", got.P50Latency.Seconds(), want.P50Latency.Seconds()},
		{"P99Latency", got.P99Latency.Seconds(), want.P99Latency.Seconds()},
		{"WorstInterval", got.WorstInterval.Seconds(), want.WorstInterval.Seconds()},
	}
	for _, f := range fields {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%d stages, n=%d, seed=%d: %s = %v (%#x), oracle %v (%#x)",
				len(stages), n, seed, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
}

// TestSimulateJitterMatchesSortedOracle pins the selection-based
// percentiles and the streamed interval tracking to the sort-based
// reference across seeds, pipeline depths, jitter levels (including
// none, where every latency ties) and sample counts on both sides of a
// percentile rank boundary.
func TestSimulateJitterMatchesSortedOracle(t *testing.T) {
	for _, n := range []int{20, 21, 400, 4000} {
		for k := 1; k <= len(oracleStageRates); k++ {
			for _, j := range []float64{0, 0.3, 0.99} {
				stages := oracleStages(k, j)
				for seed := int64(1); seed <= 500; seed++ {
					requireMatchesOracle(t, stages, n, seed)
				}
			}
		}
	}
}

// TestSimulateJitterDeepPipelineMatchesOracle covers pipelines deeper
// than the kernel's stack rows (maxStackStages), whose rows fall back
// to the heap.
func TestSimulateJitterDeepPipelineMatchesOracle(t *testing.T) {
	stages := make([]JitterStage, maxStackStages+3)
	for i := range stages {
		stages[i] = JitterStage{
			Stage:  StageHz(fmt.Sprintf("s%d", i), units.Hertz(oracleStageRates[i%len(oracleStageRates)]*float64(1+i))),
			Jitter: 0.3,
		}
	}
	for seed := int64(1); seed <= 50; seed++ {
		requireMatchesOracle(t, stages, 400, seed)
	}
}

// TestSimulateJitterOverflowMatchesOracle drives the timeline past the
// largest float64: latencies become +Inf and then NaN (Inf − Inf), the
// one case where the percentile ranks must follow sort.Float64s' NaN-
// first order.
func TestSimulateJitterOverflowMatchesOracle(t *testing.T) {
	huge := []JitterStage{
		{Stage: Stage{Name: "a", Latency: units.Seconds(4e307)}, Jitter: 0.5},
		{Stage: Stage{Name: "b", Latency: units.Seconds(9e307)}, Jitter: 0.5},
		{Stage: Stage{Name: "c", Latency: units.Seconds(1e-3)}, Jitter: 0.5},
	}
	for _, n := range []int{20, 100, 400} {
		for seed := int64(1); seed <= 50; seed++ {
			requireMatchesOracle(t, huge, n, seed)
		}
	}
	res, err := SimulateJitter(huge, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.P50Latency.Seconds()) {
		t.Errorf("overflowing timeline p50 = %v, want NaN (the fixture no longer reaches the NaN path)", res.P50Latency)
	}
}

func TestSelectKthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.Intn(300)
		if trial%5 == 4 {
			m = 1 + rng.Intn(5000)
		}
		vals := make([]float64, m)
		for i := range vals {
			switch trial % 5 {
			case 0:
				vals[i] = rng.Float64()
			case 1:
				vals[i] = float64(rng.Intn(4)) // heavy ties
			case 2:
				vals[i] = float64(i) // already sorted
			case 3:
				vals[i] = float64(m - i) // reversed
			default:
				vals[i] = float64(rng.Intn(1 + trial%7)) // heavy ties, up to 5,000 long
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		k := rng.Intn(m)
		a := append([]float64(nil), vals...)
		if got := selectKth(a, k); got != sorted[k] {
			t.Fatalf("trial %d: selectKth(k=%d of %d) = %v, want %v", trial, k, m, got, sorted[k])
		}
		for i := range a {
			if (i < k && a[i] > a[k]) || (i > k && a[i] < a[k]) {
				t.Fatalf("trial %d: a[%d] = %v on the wrong side of a[%d] = %v", trial, i, a[i], k, a[k])
			}
		}
	}
}

// TestSelectKthConstantIsLinear selects the median of a constant
// slice of 2²⁰ values. Without the tie guard each round would peel off
// one element and this would take ~2³⁹ steps.
func TestSelectKthConstantIsLinear(t *testing.T) {
	a := make([]float64, 1<<20)
	for i := range a {
		a[i] = 0.25
	}
	if got := selectKth(a, len(a)/2); got != 0.25 {
		t.Fatalf("selectKth of a constant slice = %v, want 0.25", got)
	}
}

// jitterSourceSeeds are the seeding edge cases: zero (math/rand's
// substitute seed), negatives, values at and past 2³¹−1 (reduced mod
// 2³¹−1) and the int64 extremes.
var jitterSourceSeeds = []int64{
	0, 1, -1, 2, 7, -5, 42, 89482311, 123456789,
	int32max - 1, int32max, int32max + 1, -int32max, 2 * int32max, 1 << 31, 1 << 32,
	math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// requireSourceMatchesMathRand draws n values from both sources and
// fails on the first that differs in any bit.
func requireSourceMatchesMathRand(t *testing.T, seed int64, n int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	var got jitterSource
	got.seed(seed)
	for i := 0; i < n; i++ {
		g, w := got.float64(), want.Float64()
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d, draw %d: %v (%#x), math/rand %v (%#x)", seed, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestJitterSourceMatchesMathRand pins the simulator's stack source to
// math/rand's value stream: edge seeds plus random ones, 3,000 draws
// each (more than the 607-word lag, so the recurrence wraps).
func TestJitterSourceMatchesMathRand(t *testing.T) {
	for _, seed := range jitterSourceSeeds {
		requireSourceMatchesMathRand(t, seed, 3000)
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		requireSourceMatchesMathRand(t, r.Int63()-r.Int63(), 3000)
	}
}

// FuzzJitterSourceMatchesMathRand diffs the stack source against
// math/rand over arbitrary seeds.
func FuzzJitterSourceMatchesMathRand(f *testing.F) {
	for _, seed := range jitterSourceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		requireSourceMatchesMathRand(t, seed, 3000)
	})
}

// TestSimulateJitterMissionShapeAllocatesNothing pins the kernel at
// zero allocations for mission.stochastic's shape: three stages, 400
// samples.
func TestSimulateJitterMissionShapeAllocatesNothing(t *testing.T) {
	stages := missionShapeStages()
	ctx := context.Background()
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		if _, err := SimulateJitterContext(ctx, stages, 400, seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SimulateJitterContext: %v allocs per run, want 0", allocs)
	}
}

// missionShapeStages is mission.stochastic's pipeline: its three
// jitters (5 %, 30 %, 2 %) over a sensor, compute and control stage.
func missionShapeStages() []JitterStage {
	return []JitterStage{
		{Stage: StageHz("sensor", units.Hertz(60)), Jitter: 0.05},
		{Stage: StageHz("compute", units.Hertz(178)), Jitter: 0.30},
		{Stage: StageHz("control", units.Hertz(1000)), Jitter: 0.02},
	}
}

// FuzzSimulateJitter diffs the kernel against the sort-based oracle
// over arbitrary seeds, sample counts, pipeline depths and jitters.
// Jitters are folded into [0,1) so most inputs reach the simulation
// rather than the validation error.
func FuzzSimulateJitter(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(3), 0.15, 0.3, 0.05, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, depth uint8, j0, j1, j2, j3 float64) {
		fold := func(j float64) float64 {
			if math.IsNaN(j) || math.IsInf(j, 0) {
				return 0
			}
			return math.Abs(math.Mod(j, 1))
		}
		stages := oracleStages(1+int(depth)%len(oracleStageRates), fold(j0), fold(j1), fold(j2), fold(j3))
		requireMatchesOracle(t, stages, 20+int(n)%5000, seed)
	})
}
