package pipeline

import (
	"context"
	"fmt"
	"math"

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
// simulation mid-candidate instead of draining it. Its draws are
// math/rand's value stream, bit for bit: the ones
// rand.New(rand.NewSource(seed)).Float64 returns, from a copy of that
// source kept on the stack. The cancellation probe draws nothing, so
// results stay byte-deterministic. Up to maxStackStages stages and
// maxStackLatencies kept samples it allocates nothing.
//
//reprolint:hotpath
func SimulateJitterContext(ctx context.Context, stages []JitterStage, n int, seed int64) (StochasticResult, error) {
	if len(stages) == 0 {
		return StochasticResult{}, fmt.Errorf("pipeline: no stages")
	}
	if n < 20 {
		return StochasticResult{}, fmt.Errorf("pipeline: jitter simulation needs ≥20 samples, got %d", n)
	}
	for _, s := range stages {
		// Negated so that a NaN latency or jitter fails too.
		if lat := s.Latency.Seconds(); !(lat > 0) || math.IsInf(lat, 1) {
			return StochasticResult{}, fmt.Errorf("pipeline: stage %q needs a positive finite latency", s.Name)
		}
		if !(s.Jitter >= 0 && s.Jitter < 1) {
			return StochasticResult{}, fmt.Errorf("pipeline: stage %q jitter must be in [0,1), got %v", s.Name, s.Jitter)
		}
	}
	var rng jitterSource
	rng.seed(seed)
	ns := len(stages)
	// The two completion-time rows of the flow-shop recurrence.
	var rowBuf [2 * (maxStackStages + 1)]float64
	rows := rowBuf[:]
	if ns > maxStackStages {
		rows = make([]float64, 2*(ns+1))
	}
	prev, cur := rows[:ns+1], rows[ns+1:2*(ns+1)]
	warm := n / 10
	// Only the latencies are kept; the output times reduce to the first,
	// the last and the widest gap as the loop runs.
	var latBuf [maxStackLatencies]float64
	latencies := latBuf[:]
	if n-warm > len(latBuf) {
		latencies = make([]float64, n-warm)
	}
	latencies = latencies[:n-warm]
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
			lat := mean * (1 + stages[i].Jitter*(2*rng.float64()-1))
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
	// Nearest-rank percentiles by selection instead of a full sort: p50
	// first, then p99 inside latencies[i50:], which holds every latency
	// from rank i50 up. The order statistics are the ones a sorted copy
	// holds at those ranks, bit for bit.
	i50, i99 := nearestRank(len(latencies), 0.50), nearestRank(len(latencies), 0.99)
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
	res.P50Latency = units.Seconds(orderStat(latencies, nan, i50))
	res.P99Latency = units.Seconds(orderStat(latencies[i50:], max(nan-i50, 0), i99-i50))
	return res, nil
}

// maxStackStages and maxStackLatencies bound the pipelines whose
// flow-shop rows and kept latencies live in fixed-size arrays on
// SimulateJitterContext's stack; larger ones fall back to make.
// mission.stochastic's three stages and 400 samples fit.
const (
	maxStackStages    = 8
	maxStackLatencies = 512
)

// nearestRank is the 0-based index of the nearest-rank p-quantile of m
// sorted values.
func nearestRank(m int, p float64) int {
	return min(max(int(math.Ceil(p*float64(m)))-1, 0), m-1)
}

// orderStat returns the value a sorted copy of a (NaNs first) holds at
// index k, given that a's nan NaNs already sit at its front. It leaves
// a[k:] holding every value from rank k up, still NaNs first, so a
// later call on a[k:] with a rank shifted down by k selects among them.
func orderStat(a []float64, nan, k int) float64 {
	if k < nan {
		return a[k]
	}
	return selectKth(a[nan:], k-nan)
}

// selectKth partially orders a (which must hold no NaN) so that a[k]
// is the k-th smallest value, everything before it ≤ a[k] and
// everything after it ≥ a[k], and returns a[k]. Each round takes a
// median-of-three pivot and partitions branch-free: every element is
// swapped into place unconditionally and only the boundary's advance
// depends on the comparison (b2i), so no branch mispredicts on real
// latency data. A tie guard keeps a constant slice (a jitter-free
// pipeline) linear: when the < pass leaves less than a quarter of the
// range below the pivot, a second <= pass gathers the pivot's ties
// beside it, and a rank among them is answered at once.
//
//reprolint:hotpath
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
		a[mid], a[hi] = a[hi], pivot
		lt := lo
		for i := lo; i < hi; i++ {
			v := a[i]
			a[i] = a[lt]
			a[lt] = v
			lt += b2i(v < pivot)
		}
		a[lt], a[hi] = pivot, a[lt]
		// a[lo:lt] < pivot = a[lt] ≤ a[lt+1:hi+1].
		eq := lt + 1
		if 4*(lt-lo) < hi-lo+1 {
			for i := eq; i <= hi; i++ {
				v := a[i]
				a[i] = a[eq]
				a[eq] = v
				eq += b2i(v <= pivot)
			}
		}
		// a[lt:eq] holds only the pivot's value.
		switch {
		case k < lt:
			hi = lt - 1
		case k >= eq:
			lo = eq
		default:
			return pivot
		}
	}
	return a[k]
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a flag
// set (SETcc), not a branch, which is what keeps selectKth's
// partition passes branch-free.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// EffectiveActionRate is the conservative decision rate a safety
// analysis should assume under jitter: the reciprocal of the worst
// observed output interval. Feeding this (rather than the mean rate)
// into Eq. 4 keeps the safety guarantee under input-dependent latency.
func (r StochasticResult) EffectiveActionRate() units.Frequency {
	return r.WorstInterval.Frequency()
}
