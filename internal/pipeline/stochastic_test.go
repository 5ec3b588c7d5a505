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
		if s.Latency <= 0 || math.IsInf(s.Latency.Seconds(), 1) {
			return StochasticResult{}, fmt.Errorf("pipeline: stage %q needs a positive finite latency", s.Name)
		}
		if s.Jitter < 0 || s.Jitter >= 1 {
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
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(300)
		vals := make([]float64, m)
		for i := range vals {
			switch trial % 4 {
			case 0:
				vals[i] = rng.Float64()
			case 1:
				vals[i] = float64(rng.Intn(4)) // heavy ties
			case 2:
				vals[i] = float64(i) // already sorted
			default:
				vals[i] = float64(m - i) // reversed
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
