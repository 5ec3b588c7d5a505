// Package core implements the F-1 model — the paper's primary
// contribution: a roofline-like visual performance model that relates a
// UAV's safe flying velocity to the action throughput of its
// sensor–compute–control pipeline (Eq. 4), locates the knee point that
// separates the compute/sensor-bound region from the physics-bound
// region, and classifies designs as optimal, over-provisioned or
// under-provisioned.
//
// # Factored evaluation
//
// Analyze is factored for callers that evaluate many configurations
// sharing axes (partial.go): a ModelPartial caches everything derived
// from (airframe, accel model, payload, sensing range, knee fraction) —
// the a_max lookup, the knee/roof square roots and the knee-throughput
// scalar the classifier compares against — and a Stage caches one
// pipeline rate's latency→frequency round trip. A ModelPartial is safe
// to reuse across any combination of stage rates and names (those are
// combine-time inputs); it must be rebuilt when any of its five inputs
// changes, except that a sensing-range change may go through WithRange,
// which reuses the a_max lookup. AnalyzeWithPartial recombines partial
// and stages with pure arithmetic, bit-identical to Analyze (which is
// now a thin wrapper over it), allocating only the exact-size Ceilings
// slice. The exploration engine in internal/dse precomputes partials
// per payload triple and stages per rate, so its per-candidate cost is
// the combine alone.
//
// Cache (memo.go) memoizes analyses with sharding, segmented-LRU
// eviction and context-aware singleflight miss coalescing. No
// production path uses it any more — a direct Analyze is no slower
// than a warm probe — and it remains only while perfbench compiles
// against it.
//
// The combine's allocation discipline (//reprolint:hotpath on
// AnalyzeWithPartial[Into]) and the package's context-flow contract
// are mechanized by the internal/lint analyzers and gated in CI via
// cmd/reprolint; see docs/INVARIANTS.md.
package core

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// DefaultKneeFraction is the fraction η of the physics roof at which the
// knee point is declared. The paper defines the knee qualitatively
// ("beyond which increasing f_action does not increase the velocity");
// η = 0.975 reproduces the published per-UAV knee points once a_max is
// anchored (see CalibrateAccelForKnee) and its sensitivity is covered by
// an ablation bench.
const DefaultKneeFraction = 0.975

// Model is the analytic F-1 curve for one UAV configuration: a maximum
// acceleration, a sensing range, and the knee definition.
type Model struct {
	// Accel is a_max in Eq. 4: the maximum sustained acceleration
	// (equivalently, braking deceleration) the UAV's physics allows at
	// its current takeoff mass.
	Accel units.Acceleration
	// Range is d in Eq. 4: how far ahead the sensor can see an obstacle.
	Range units.Length
	// KneeFraction is η ∈ (0,1); zero means DefaultKneeFraction.
	KneeFraction float64
}

// Validate reports an error when the model parameters are unusable.
func (m Model) Validate() error {
	switch {
	case m.Accel <= 0:
		return fmt.Errorf("f1: a_max must be positive, got %v", m.Accel)
	case m.Range <= 0:
		return fmt.Errorf("f1: sensing range must be positive, got %v", m.Range)
	case m.KneeFraction < 0 || m.KneeFraction >= 1:
		return fmt.Errorf("f1: knee fraction must be in [0,1), got %v", m.KneeFraction)
	}
	return nil
}

func (m Model) eta() float64 {
	if m.KneeFraction == 0 {
		return DefaultKneeFraction
	}
	return m.KneeFraction
}

// SafeVelocity is Eq. 4 of the paper:
//
//	v_safe = a_max · (sqrt(T_action² + 2d/a_max) − T_action)
//
// the highest speed from which the UAV can still stop within its sensing
// range d given that a decision takes T_action = 1/f_action and braking
// decelerates at a_max.
func SafeVelocity(a units.Acceleration, d units.Length, T units.Latency) units.Velocity {
	if a <= 0 || d <= 0 {
		return 0
	}
	if math.IsInf(T.Seconds(), 1) {
		return 0
	}
	aa, dd, tt := a.MetersPerSecond2(), d.Meters(), T.Seconds()
	if tt < 0 {
		tt = 0
	}
	return units.MetersPerSecond(aa * (math.Sqrt(tt*tt+2*dd/aa) - tt))
}

// PeakVelocity is the physics roof V_roof = sqrt(2·d·a_max): the limit
// of Eq. 4 as the decision latency goes to zero.
func PeakVelocity(a units.Acceleration, d units.Length) units.Velocity {
	if a <= 0 || d <= 0 {
		return 0
	}
	return units.MetersPerSecond(math.Sqrt(2 * d.Meters() * a.MetersPerSecond2()))
}

// SafeVelocityAt evaluates the model's Eq. 4 at an action throughput.
func (m Model) SafeVelocityAt(f units.Frequency) units.Velocity {
	return SafeVelocity(m.Accel, m.Range, f.Period())
}

// Roof is the model's physics-bound velocity ceiling.
func (m Model) Roof() units.Velocity { return PeakVelocity(m.Accel, m.Range) }

// LatencyAsymptote is the left asymptote of the F-1 plot: for low action
// throughput Eq. 4 degenerates to v ≈ d·f_action (the UAV covers at most
// one sensing range per decision). This line plays the role of the
// bandwidth slope in a classic roofline.
func (m Model) LatencyAsymptote(f units.Frequency) units.Velocity {
	return units.MetersPerSecond(m.Range.Meters() * f.Hertz())
}

// KneePoint is the corner of the F-1 roofline: the minimum action
// throughput that achieves (η of) the physics-bound peak velocity.
type KneePoint struct {
	Throughput units.Frequency
	Velocity   units.Velocity
}

// Knee returns the model's knee point. Closed form: setting
// v_safe(T) = η·V_roof in Eq. 4 and solving for T gives
//
//	T_knee = d·(1−η²)/(η·V_roof)  ⇒  f_knee = η/(1−η²) · sqrt(2·a/d)
func (m Model) Knee() KneePoint {
	eta := m.eta()
	if m.Accel <= 0 || m.Range <= 0 || eta <= 0 || eta >= 1 {
		return KneePoint{}
	}
	f := units.Hertz(eta / (1 - eta*eta) * math.Sqrt(2*m.Accel.MetersPerSecond2()/m.Range.Meters()))
	return KneePoint{Throughput: f, Velocity: m.SafeVelocityAt(f)}
}

// String renders "(f, v)".
func (k KneePoint) String() string {
	return fmt.Sprintf("(%v, %v)", k.Throughput, k.Velocity)
}
