package catalog

import (
	"fmt"
	"math"

	"repro/internal/physics"
	"repro/internal/units"
)

// Synthetic builds a catalog scaled far beyond the paper's presets, for
// stress tests and benchmarks of the exploration engine: nUAVs airframe
// variants, nComputes platforms and nAlgos algorithms, with every
// (algorithm × platform) pair measured so the cross product yields
// nUAVs·nComputes·nAlgos buildable candidates. All quantities are
// deterministic functions of the index — two calls produce identical
// catalogs.
func Synthetic(nUAVs, nComputes, nAlgos int) *Catalog {
	return synthetic(nUAVs, nComputes, nAlgos, 0)
}

// SyntheticSkewed is Synthetic with a strongly non-uniform analysis
// cost: UAV i's acceleration model performs i·spin extra deterministic
// floating-point iterations per evaluation, so the candidate space's
// cost grows with the cell index — the last UAV's cells dominate the
// wall clock while the first UAV's are nearly free. The analysis
// *results* are identical to Synthetic's (the spin changes nothing but
// time), which makes this the fixture for scheduler load-balancing tests
// and benches: a static partition of a skewed space stalls on the
// expensive tail, dynamic chunk claiming spreads it.
func SyntheticSkewed(nUAVs, nComputes, nAlgos, spin int) *Catalog {
	return synthetic(nUAVs, nComputes, nAlgos, spin)
}

// SyntheticAlgoHeavy is Synthetic with the opposite skew shape: the
// algorithm axis dominates the cross product (many algorithms measured
// per compute) and every UAV carries a calibrated acceleration table
// instead of the closed-form PitchLimited model, so each analysis pays
// a real catalog's a_max cost — an anchor-table segment search plus
// cubic Hermite evaluation. This is the fixture where plan-level
// partial evaluation matters most: the model work depends only on the
// (UAV, compute, sensor) payload triple, so a factored engine computes
// it once and reuses it across all nAlgos algorithms, while a naive
// per-candidate evaluation repeats it nAlgos times. Results are
// deterministic functions of the indices — two calls produce identical
// catalogs.
func SyntheticAlgoHeavy(nUAVs, nComputes, nAlgos int) *Catalog {
	c := synthetic(nUAVs, nComputes, nAlgos, 0)
	for i := 0; i < nUAVs; i++ {
		name := fmt.Sprintf("synth-uav-%03d", i)
		u, err := c.UAV(name)
		if err != nil {
			panic(err) // unreachable: synthetic just added it
		}
		// A monotone non-increasing anchor table spanning the payload
		// range the synthetic computes + sensors produce, with enough
		// anchors that At() performs a non-trivial segment search.
		pts := make([]physics.CalibPoint, 8)
		for k := range pts {
			pts[k] = physics.CalibPoint{
				Payload: units.Grams(20 + float64(k)*70),
				Accel:   units.MetersPerSecond2(12 - float64(k)*1.25 - float64(i%5)*0.3),
			}
		}
		u.Accel = physics.MustCalibratedTable(pts)
		c.AddUAV(u)
	}
	return c
}

// spin burns n deterministic float iterations and reports whether the
// chain stayed finite — the shared compute-delay kernel behind the
// skew fixtures. It always returns true (the sqrt chain stays finite
// and positive), but callers must branch on it so the loop stays
// observable and cannot be elided.
func spin(n int) bool {
	x := float64(n + 2)
	for i := 0; i < n; i++ {
		x = math.Sqrt(x) + 1
	}
	return !math.IsNaN(x)
}

// spinningAccel wraps the synthetic catalog's acceleration model with a
// deterministic compute delay — the knob behind SyntheticSkewed. The
// returned acceleration is exactly the wrapped model's; only the
// evaluation cost differs. Comparable (a struct of scalars), so
// configurations carrying it stay memoizable.
type spinningAccel struct {
	model physics.PitchLimited
	spin  int
}

// MaxAccel implements physics.AccelModel.
func (m spinningAccel) MaxAccel(frame physics.Airframe, payload units.Mass) units.Acceleration {
	ok := spin(m.spin)
	a := m.model.MaxAccel(frame, payload)
	if !ok {
		return 0 // unreachable anti-elision branch
	}
	return a
}

// payloadSpinAccel wraps PitchLimited with an evaluation cost
// proportional to the payload mass being queried (spinPerGram
// deterministic float iterations per gram). The returned acceleration
// is exactly the wrapped model's; only the evaluation cost differs.
type payloadSpinAccel struct {
	model       physics.PitchLimited
	spinPerGram int
}

// MaxAccel implements physics.AccelModel.
func (m payloadSpinAccel) MaxAccel(frame physics.Airframe, payload units.Mass) units.Acceleration {
	n := 0
	if g := payload.Grams(); g > 0 {
		n = int(g) * m.spinPerGram
	}
	ok := spin(n)
	a := m.model.MaxAccel(frame, payload)
	if !ok {
		return 0 // unreachable anti-elision branch
	}
	return a
}

// PayloadSpinAccel returns an acceleration model bit-identical to
// PitchLimited{UsableThrustFraction: 0.95} whose evaluation cost grows
// linearly with the queried payload. Unlike SyntheticSkewed's per-UAV
// spin — which plan-level partial evaluation hoists out of the
// per-candidate path entirely — this skew lives on the one axis a
// partial cannot cache (the payload is the a_max lookup's input), so a
// payload sweep over it still presents the scheduler with genuinely
// skewed per-point cost. It is the fixture behind the skewed-sweep
// rebalancing benches.
func PayloadSpinAccel(spinPerGram int) physics.AccelModel {
	return payloadSpinAccel{model: physics.PitchLimited{UsableThrustFraction: 0.95}, spinPerGram: spinPerGram}
}

func synthetic(nUAVs, nComputes, nAlgos, spin int) *Catalog {
	c := New()
	for i := 0; i < nUAVs; i++ {
		name := fmt.Sprintf("synth-uav-%03d", i)
		sensor := Sensor{
			Name:  fmt.Sprintf("synth-cam-%03d", i),
			Rate:  units.Hertz(30 + float64(i%4)*15),
			Range: units.Meters(2 + float64(i%5)),
			Mass:  units.Grams(10 + float64(i%3)*10),
		}
		c.AddSensor(sensor)
		var accel physics.AccelModel = physics.PitchLimited{UsableThrustFraction: 0.95}
		if spin > 0 {
			accel = spinningAccel{model: physics.PitchLimited{UsableThrustFraction: 0.95}, spin: i * spin}
		}
		c.AddUAV(UAV{
			Name: name,
			Frame: physics.Airframe{
				Name:        name,
				BaseMass:    units.Grams(800 + float64(i%7)*100),
				MotorCount:  4,
				MotorThrust: units.GramsForce(500 + float64(i%9)*50),
				FrameSize:   units.Millimeters(300 + float64(i%6)*50),
			},
			Accel:          accel,
			DefaultSensor:  sensor,
			Class:          MiniUAV,
			Battery:        units.MilliampHours(3000),
			BatteryVoltage: 11.1,
			Endurance:      units.Seconds(25 * 60),
			ControlRate:    units.Hertz(1000),
		})
	}
	for i := 0; i < nComputes; i++ {
		c.AddCompute(Compute{
			Name:          fmt.Sprintf("synth-soc-%03d", i),
			Mass:          units.Grams(20 + float64(i%12)*25),
			TDP:           units.Watts(1 + float64(i%10)*3),
			NeedsHeatsink: i%3 != 0,
		})
	}
	for i := 0; i < nAlgos; i++ {
		c.AddAlgorithm(Algorithm{
			Name:     fmt.Sprintf("synth-net-%03d", i),
			Paradigm: EndToEnd,
		})
	}
	for a := 0; a < nAlgos; a++ {
		for p := 0; p < nComputes; p++ {
			// Spread throughputs across under-, optimally and
			// over-provisioned territory.
			rate := units.Hertz(0.5 + float64((a*nComputes+p)%200))
			c.SetPerf(fmt.Sprintf("synth-net-%03d", a), fmt.Sprintf("synth-soc-%03d", p), rate)
		}
	}
	return c
}
