package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: fewer, and the "percentile" is one or two unlucky
// requests rather than a property of the run.
const minTail = 10

// tailIndex returns the nearest-rank index of the highest percentile no
// higher than want that leaves at least minTail samples beyond it, in a
// sorted slice of n samples, and the percentile it stands for. With
// fewer than minTail+1 samples no tail percentile exists and ok is
// false.
func tailIndex(n int, want float64) (idx int, q float64, ok bool) {
	if n <= minTail {
		return 0, 0, false
	}
	idx = int(math.Ceil(want*float64(n))) - 1
	if limit := n - minTail - 1; idx > limit {
		idx = limit
	}
	if idx < 0 {
		idx = 0
	}
	return idx, float64(idx+1) / float64(n), true
}

// durations is a sample of request times.
type durations []time.Duration

func (d durations) sorted() durations {
	out := append(durations(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median in milliseconds (0 for no samples).
func (d durations) median() float64 {
	return medianOf(d.ms())
}

// tail returns the highest percentile up to want with at least minTail
// samples beyond it, in milliseconds, and the percentile it is.
func (d durations) tail(want float64) (ms, q float64) {
	s := d.sorted()
	idx, q, ok := tailIndex(len(s), want)
	if !ok {
		return 0, 0
	}
	return msOf(s[idx]), q
}

func (d durations) ms() []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = msOf(v)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf returns the median of xs (0 for none); xs is not modified.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
