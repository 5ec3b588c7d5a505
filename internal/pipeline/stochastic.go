package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/units"
)

// JitterStage is a pipeline stage whose per-sample latency varies: a
// mean with a uniform ± jitter band (autonomy workloads are input
// dependent — e.g. a planner's time varies with scene clutter). The
// analytic Eq. 3 uses only means; the stochastic simulator shows how
// jitter erodes the achievable action rate and fattens the latency
// tail, which matters when the knee sits close to the mean rate.
type JitterStage struct {
	// Stage carries the name and mean latency.
	Stage
	// Jitter is the half-width of the uniform latency band as a
	// fraction of the mean (0.2 = ±20 %). Must be in [0,1).
	Jitter float64
}

// StochasticResult summarizes a jittered simulation.
type StochasticResult struct {
	// MeanThroughput is the long-run output rate.
	MeanThroughput units.Frequency
	// P50Latency and P99Latency are end-to-end latency percentiles.
	P50Latency units.Latency
	P99Latency units.Latency
	// WorstInterval is the largest observed gap between consecutive
	// outputs — the worst-case decision staleness the controller sees.
	WorstInterval units.Latency
}

// SimulateJitter pushes n samples through an overlapped (blocking
// flow-shop, as in Simulate) pipeline whose stage latencies are drawn
// per sample from each stage's jitter band, using a deterministic
// seeded source. The first 10 % of samples are discarded as warm-up.
func SimulateJitter(stages []JitterStage, n int, seed int64) (StochasticResult, error) {
	return SimulateJitterContext(context.Background(), stages, n, seed)
}

// SimulateJitterContext is SimulateJitter with cancellation checked
// every sample batch, so an abandoned request stops a Monte-Carlo
// simulation mid-candidate instead of draining it. The RNG stream is
// identical to SimulateJitter for the same seed — the cancellation
// probe draws nothing — so results stay byte-deterministic.
func SimulateJitterContext(ctx context.Context, stages []JitterStage, n int, seed int64) (StochasticResult, error) {
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
	// One backing array for the two completion-time rows of the
	// flow-shop recurrence.
	rows := make([]float64, 2*(ns+1))
	prev, cur := rows[:ns+1], rows[ns+1:]
	warm := n / 10
	// Only the latencies are kept; the output times reduce to the first,
	// the last and the widest gap as the loop runs.
	latencies := make([]float64, n-warm)
	var first, last, worst float64
	nan := 0
	for k := 0; k < n; k++ {
		if k%64 == 0 {
			if err := ctx.Err(); err != nil {
				return StochasticResult{}, err
			}
		}
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
		if k < warm {
			continue
		}
		out := prev[ns]
		if k == warm {
			first = out
		} else if gap := out - last; gap > worst {
			worst = gap
		}
		last = out
		l := out - entry
		if l != l {
			nan++ // only an overflowing (Inf − Inf) timeline yields NaN
		}
		latencies[k-warm] = l
	}
	res := StochasticResult{WorstInterval: units.Seconds(worst)}
	if span := last - first; span > 0 {
		res.MeanThroughput = units.Hertz(float64(len(latencies)-1) / span)
	}
	// Nearest-rank percentiles by selection instead of a full sort: p99
	// first, then p50 inside the p99 prefix, which holds the i99+1
	// smallest latencies. The order statistics are the ones a sorted copy
	// holds at those ranks, bit for bit.
	i99, i50 := nearestRank(len(latencies), 0.99), nearestRank(len(latencies), 0.50)
	if nan > 0 {
		// sort.Float64s orders NaNs first; match it.
		j := 0
		for i, v := range latencies {
			if v != v {
				latencies[i], latencies[j] = latencies[j], latencies[i]
				j++
			}
		}
	}
	res.P99Latency = units.Seconds(orderStat(latencies, nan, i99))
	res.P50Latency = units.Seconds(orderStat(latencies[:i99+1], nan, i50))
	return res, nil
}

// nearestRank is the 0-based index of the nearest-rank p-quantile of m
// sorted values.
func nearestRank(m int, p float64) int {
	return min(max(int(math.Ceil(p*float64(m)))-1, 0), m-1)
}

// orderStat returns the value a sorted copy of a (NaNs first) holds at
// index k, given that a's nan NaNs already sit at its front. It leaves
// a[:k] holding the k smallest values, so a later call on a[:k+1] with
// a smaller rank selects within them.
func orderStat(a []float64, nan, k int) float64 {
	if k < nan {
		return a[k]
	}
	return selectKth(a[nan:], k-nan)
}

// selectKth partially orders a (which must hold no NaN) so that a[k]
// is the k-th smallest value, everything before it ≤ a[k] and
// everything after it ≥ a[k], and returns a[k]: Hoare partitioning
// around a median-of-three pivot, iterating into the side that holds k.
// Ties split evenly, so a constant slice (a jitter-free pipeline) stays
// linear.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo:j+1] ≤ pivot ≤ a[i:hi+1], and anything between the
		// two is the pivot itself.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// EffectiveActionRate is the conservative decision rate a safety
// analysis should assume under jitter: the reciprocal of the worst
// observed output interval. Feeding this (rather than the mean rate)
// into Eq. 4 keeps the safety guarantee under input-dependent latency.
func (r StochasticResult) EffectiveActionRate() units.Frequency {
	return r.WorstInterval.Frequency()
}
