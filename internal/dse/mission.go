package dse

import (
	"context"
	"math"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/flightsim"
	"repro/internal/mission"
	"repro/internal/physics"
	"repro/internal/pipeline"
	"repro/internal/redundancy"
	"repro/internal/units"
)

var (
	negInf = math.Inf(-1)
	posInf = math.Inf(1)
)

// Mission-model constants shared by the registered objectives. The
// values are representative, not tunable per request: an objective's
// meaning (and its cache entries) must not drift between requests.
// docs/OBJECTIVES.md records each choice and its provenance.
const (
	// missionRouteM / missionLegs: a 1 km survey flown as 4 stop-and-go
	// segments — long enough that cruise velocity dominates, short
	// enough that small packs can finish it.
	missionRouteM = 1000.0
	missionLegs   = 4
	// rotorFOM is the propulsive figure of merit for small quads.
	rotorFOM = 0.6
	// liPoCellV is the nominal per-cell voltage used to infer the
	// series cell count from a pack voltage.
	liPoCellV = 3.7
	// voterLatencyS is the TMR cross-check/vote step per decision.
	voterLatencyS = 1e-3
	// moduleFailRate is one compute module's failure rate in 1/s
	// (~0.036 per hour) for the redundancy mission-reliability model.
	moduleFailRate = 1e-5
	// flightsimTrials is the Monte-Carlo trial count per candidate,
	// matching the spirit of the paper's five trials per velocity point
	// with headroom for a stable success rate.
	flightsimTrials = 10
	// jitterSamples is the stochastic pipeline's per-candidate sample
	// count (the first 10 % are warm-up).
	jitterSamples = 400
	// sensorJitter/computeJitter/controlJitter are the per-stage
	// latency half-widths: sensors are near-isochronous, autonomy
	// compute is strongly input-dependent, flight control is tight.
	sensorJitter  = 0.05
	computeJitter = 0.30
	controlJitter = 0.02
)

// hoverPowerFor estimates the candidate airframe's hover power from
// the actuator-disk model, with the rotor disk derived from the frame:
// rotor radius ≈ a quarter of the motor-to-motor diagonal, the usual
// quadcopter layout.
func hoverPowerFor(u *catalog.UAV, payload units.Mass) (units.Power, error) {
	r := u.Frame.FrameSize.Meters() / 4
	n := u.Frame.MotorCount
	if n <= 0 {
		n = 4
	}
	area := float64(n) * math.Pi * r * r
	return mission.HoverPower(u.Frame.TakeoffMass(payload), area, rotorFOM)
}

// packVoltage is the UAV's nominal pack voltage (3S default when the
// preset leaves it unset).
func packVoltage(u *catalog.UAV) float64 {
	if u.BatteryVoltage > 0 {
		return u.BatteryVoltage
	}
	return 3 * liPoCellV
}

// --- mission.endurance -------------------------------------------------

// enduranceEval scores the downstream consequence the paper leads with
// (§I, §III-A): a faster safe velocity finishes the survey route sooner
// and, at near-constant rotorcraft power, cheaper.
type enduranceEval struct{ cat *catalog.Catalog }

func newEnduranceObjective(cat *catalog.Catalog, _ int64) Evaluator { return enduranceEval{cat} }

var enduranceColumns = []ObjectiveColumn{
	{Name: "mission_time_s"},
	{Name: "mission_energy_j"},
	{Name: "battery_margin", Maximize: true},
}

func (enduranceEval) Name() string               { return "mission.endurance" }
func (enduranceEval) Seed() int64                { return 0 }
func (enduranceEval) Columns() []ObjectiveColumn { return enduranceColumns }
func (enduranceEval) Heavy() bool                { return false }

func (e enduranceEval) Evaluate(_ context.Context, cand *Candidate, _ int64, out []float64) error {
	u, err := e.cat.UAV(cand.Selection.UAV)
	if err != nil {
		return err
	}
	an := &cand.Analysis
	hover, herr := hoverPowerFor(&u, an.Config.Payload)
	if herr != nil || an.SafeVelocity <= 0 || an.AMax <= 0 {
		worstMetrics(enduranceColumns, out)
		return nil
	}
	plan := mission.Plan{
		Route:        units.Meters(missionRouteM),
		Legs:         missionLegs,
		Cruise:       an.SafeVelocity,
		Accel:        an.AMax,
		HoverPower:   hover,
		ComputePower: cand.Power,
		Battery:      u.Battery.Energy(packVoltage(&u)),
	}
	res, err := plan.Evaluate()
	if err != nil {
		worstMetrics(enduranceColumns, out)
		return nil
	}
	out[0] = res.Time.Seconds()
	out[1] = res.Energy.Joules()
	out[2] = 1 - res.BatteryFraction
	return nil
}

// --- mission.battery ---------------------------------------------------

// batteryEval scores hover endurance on the sagging LiPo model: I²R
// losses and the low-voltage cutoff punish power-hungry compute
// non-linearly, which the nominal Fig. 2b numbers hide.
type batteryEval struct{ cat *catalog.Catalog }

func newBatteryObjective(cat *catalog.Catalog, _ int64) Evaluator { return batteryEval{cat} }

var batteryColumns = []ObjectiveColumn{
	{Name: "endurance_s", Maximize: true},
	{Name: "sag_frac"},
	{Name: "draw_w"},
}

func (batteryEval) Name() string               { return "mission.battery" }
func (batteryEval) Seed() int64                { return 0 }
func (batteryEval) Columns() []ObjectiveColumn { return batteryColumns }
func (batteryEval) Heavy() bool                { return true }

func (e batteryEval) Evaluate(_ context.Context, cand *Candidate, _ int64, out []float64) error {
	u, err := e.cat.UAV(cand.Selection.UAV)
	if err != nil {
		return err
	}
	hover, herr := hoverPowerFor(&u, cand.Analysis.Config.Payload)
	if herr != nil {
		worstMetrics(batteryColumns, out)
		return nil
	}
	cells := int(math.Round(packVoltage(&u) / liPoCellV))
	if cells < 1 {
		cells = 1
	}
	pack := mission.Battery{Capacity: u.Battery, Cells: cells}
	draw := hover + cand.Power
	endurance, err := pack.Endurance(draw)
	if err != nil {
		worstMetrics(batteryColumns, out)
		return nil
	}
	// Sag fraction against the vendor-quoted nominal estimate, computed
	// from the endurance already integrated (SagPenalty would integrate
	// the discharge a second time).
	naive := pack.NominalEnergy().Joules() / draw.Watts()
	sag := 0.0
	if naive > 0 {
		sag = math.Max(0, 1-endurance.Seconds()/naive)
	}
	out[0] = endurance.Seconds()
	out[1] = sag
	out[2] = draw.Watts()
	return nil
}

// --- mission.thermal ---------------------------------------------------

// thermalEval is the cheap analytic objective: the heatsink mass the
// platform's TDP demands (Fig. 12's 20×-TDP → 16.2×-mass relation),
// how much of the takeoff mass the payload eats, and the thrust
// headroom left above hover.
type thermalEval struct{ cat *catalog.Catalog }

func newThermalObjective(cat *catalog.Catalog, _ int64) Evaluator { return thermalEval{cat} }

var thermalColumns = []ObjectiveColumn{
	{Name: "heatsink_g"},
	{Name: "payload_frac"},
	{Name: "thrust_margin", Maximize: true},
}

func (thermalEval) Name() string               { return "mission.thermal" }
func (thermalEval) Seed() int64                { return 0 }
func (thermalEval) Columns() []ObjectiveColumn { return thermalColumns }
func (thermalEval) Heavy() bool                { return false }

func (e thermalEval) Evaluate(_ context.Context, cand *Candidate, _ int64, out []float64) error {
	u, err := e.cat.UAV(cand.Selection.UAV)
	if err != nil {
		return err
	}
	comp, err := e.cat.Compute(cand.Selection.Compute)
	if err != nil {
		return err
	}
	var heatsink units.Mass
	if comp.NeedsHeatsink {
		heatsink = e.cat.Heatsink.HeatsinkMass(comp.TDP)
	}
	payload := cand.Analysis.Config.Payload
	takeoff := u.Frame.TakeoffMass(payload)
	out[0] = heatsink.Grams()
	if takeoff > 0 {
		out[1] = float64(payload) / float64(takeoff)
	} else {
		out[1] = posInf
	}
	// Thrust-to-weight of 1 is bare hover; the margin above it is the
	// maneuvering authority the payload left on the table.
	out[2] = u.Frame.ThrustToWeight(payload) - 1
	return nil
}

// --- mission.redundancy ------------------------------------------------

// redundancyEval prices §VI-C's fault-tolerance scenario: triplicate
// the compute module (mass ×3, a voter latency per decision), re-run
// the F-1 analysis on the degraded configuration, and score the safe
// velocity the TMR system retains against the reliability it buys.
type redundancyEval struct{ cat *catalog.Catalog }

func newRedundancyObjective(cat *catalog.Catalog, _ int64) Evaluator { return redundancyEval{cat} }

var redundancyColumns = []ObjectiveColumn{
	{Name: "tmr_velocity_mps", Maximize: true},
	{Name: "reliability", Maximize: true},
	{Name: "extra_mass_g"},
}

func (redundancyEval) Name() string               { return "mission.redundancy" }
func (redundancyEval) Seed() int64                { return 0 }
func (redundancyEval) Columns() []ObjectiveColumn { return redundancyColumns }
func (redundancyEval) Heavy() bool                { return false }

func (e redundancyEval) Evaluate(_ context.Context, cand *Candidate, _ int64, out []float64) error {
	comp, err := e.cat.Compute(cand.Selection.Compute)
	if err != nil {
		return err
	}
	arr := redundancy.Arrangement{
		Scheme:       redundancy.TMR,
		ModuleMass:   comp.TotalMass(e.cat.Heatsink),
		ModuleRate:   cand.Analysis.Config.ComputeRate,
		ModuleTDP:    comp.TDP,
		VoterLatency: units.Seconds(voterLatencyS),
	}
	if arr.Validate() != nil {
		worstMetrics(redundancyColumns, out)
		return nil
	}
	// The two extra replicas ride as payload and the voter stretches
	// every decision; the F-1 model prices both into safe velocity.
	cfg := cand.Analysis.Config
	cfg.Payload += units.Mass(2 * float64(arr.ModuleMass))
	cfg.ComputeRate = arr.EffectiveRate()
	an, err := core.Analyze(cfg)
	if err != nil || an.SafeVelocity <= 0 {
		worstMetrics(redundancyColumns, out)
		return nil
	}
	// Per-module mission survival over the TMR-velocity route time,
	// then majority-vote masking.
	tMission := missionRouteM / an.SafeVelocity.MetersPerSecond()
	pModule := math.Exp(-moduleFailRate * tMission)
	rel, err := arr.MissionReliability(pModule)
	if err != nil {
		worstMetrics(redundancyColumns, out)
		return nil
	}
	out[0] = an.SafeVelocity.MetersPerSecond()
	out[1] = rel
	out[2] = (arr.TotalMass() - arr.ModuleMass).Grams()
	return nil
}

// --- mission.flightsim -------------------------------------------------

// flightsimEval replays §IV's approach-and-stop protocol in the 1-D
// simulator that contains exactly the physics the F-1 model ignores
// (drag, actuation lag, brake derate, sampling phase): the success rate
// at the model's own safe velocity is how much of the analytic
// guarantee survives contact with dynamics.
type flightsimEval struct {
	cat  *catalog.Catalog
	seed int64
}

func newFlightsimObjective(cat *catalog.Catalog, seed int64) Evaluator {
	if seed == 0 {
		seed = 1
	}
	return flightsimEval{cat: cat, seed: seed}
}

var flightsimColumns = []ObjectiveColumn{
	{Name: "success_rate", Maximize: true},
	{Name: "stop_margin_m", Maximize: true},
}

func (e flightsimEval) Name() string             { return "mission.flightsim" }
func (e flightsimEval) Seed() int64              { return e.seed }
func (flightsimEval) Columns() []ObjectiveColumn { return flightsimColumns }
func (flightsimEval) Heavy() bool                { return true }

func (e flightsimEval) Evaluate(ctx context.Context, cand *Candidate, seed int64, out []float64) error {
	u, err := e.cat.UAV(cand.Selection.UAV)
	if err != nil {
		return err
	}
	an := &cand.Analysis
	if an.SafeVelocity <= 0 || an.Action <= 0 || an.Config.SensorRange <= 0 || an.AMax <= 0 {
		worstMetrics(flightsimColumns, out)
		return nil
	}
	frameM := u.Frame.FrameSize.Meters()
	v := flightsim.Vehicle{
		Mass:     u.Frame.TakeoffMass(an.Config.Payload),
		MaxAccel: an.AMax,
		// Frontal area ≈ diagonal²/8 — a coarse bluff-body estimate
		// that scales drag with the airframe.
		Drag:         physics.Drag{Cd: 1.0, Area: frameM * frameM / 8},
		ActuationLag: units.Milliseconds(30),
		BrakeDerate:  0.9,
	}
	s := flightsim.Scenario{
		// The paper flies a 3 m obstacle offset; clamp inside the
		// sensor range so short-range sensors stay winnable.
		ObstacleDistance: units.Meters(math.Min(3, an.Config.SensorRange.Meters())),
		SensorRange:      an.Config.SensorRange,
		DecisionRate:     an.Action,
		TargetVelocity:   an.SafeVelocity,
		Timestep:         units.Milliseconds(2),
	}
	trials, infractions, err := flightsim.TrialsContext(ctx, v, s, flightsimTrials, seed)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		worstMetrics(flightsimColumns, out)
		return nil
	}
	minMargin := posInf
	for i := range trials {
		if m := trials[i].StopMargin.Meters(); m < minMargin {
			minMargin = m
		}
	}
	out[0] = 1 - float64(infractions)/float64(len(trials))
	out[1] = minMargin
	return nil
}

// --- mission.stochastic ------------------------------------------------

// stochasticEval pushes the candidate's three-stage pipeline through
// the jittered flow-shop simulator: the worst observed output interval
// — not the mean — is what a safety argument must assume (Eq. 4 with
// the effective action rate), and the p99 latency is the staleness tail
// the controller sees.
type stochasticEval struct {
	seed int64
}

func newStochasticObjective(_ *catalog.Catalog, seed int64) Evaluator {
	if seed == 0 {
		seed = 1
	}
	return stochasticEval{seed: seed}
}

var stochasticColumns = []ObjectiveColumn{
	{Name: "eff_rate_hz", Maximize: true},
	{Name: "p99_latency_ms"},
	{Name: "mean_rate_hz", Maximize: true},
}

func (e stochasticEval) Name() string             { return "mission.stochastic" }
func (e stochasticEval) Seed() int64              { return e.seed }
func (stochasticEval) Columns() []ObjectiveColumn { return stochasticColumns }
func (stochasticEval) Heavy() bool                { return true }

//reprolint:hotpath
func (e stochasticEval) Evaluate(ctx context.Context, cand *Candidate, seed int64, out []float64) error {
	cfg := &cand.Analysis.Config
	rates := [...]units.Frequency{cfg.SensorRate, cfg.ComputeRate, cfg.ControlRate}
	for _, rate := range rates {
		// Negated so that a NaN rate scores worst too.
		if !(rate > 0) || math.IsInf(rate.Hertz(), 1) {
			worstMetrics(stochasticColumns, out)
			return nil
		}
	}
	stages := [...]pipeline.JitterStage{
		{Stage: pipeline.StageHz("sensor", cfg.SensorRate), Jitter: sensorJitter},
		{Stage: pipeline.StageHz("compute", cfg.ComputeRate), Jitter: computeJitter},
		{Stage: pipeline.StageHz("control", cfg.ControlRate), Jitter: controlJitter},
	}
	res, err := pipeline.SimulateJitterContext(ctx, stages[:], jitterSamples, seed)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		worstMetrics(stochasticColumns, out)
		return nil
	}
	out[0] = res.EffectiveActionRate().Hertz()
	out[1] = res.P99Latency.Milliseconds()
	out[2] = res.MeanThroughput.Hertz()
	return nil
}
