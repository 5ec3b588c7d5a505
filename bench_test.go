// Benchmark harness: one benchmark per paper table/figure (each runs
// the registered experiment that regenerates the artifact) plus
// ablation benches for the design choices DESIGN.md calls out and
// micro-benchmarks of the model's hot paths.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
package f1

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/flightsim"
	"repro/internal/mission"
	"repro/internal/physics"
	"repro/internal/pipeline"
	"repro/internal/units"
)

// benchExperiment runs one registered experiment per iteration and
// reports a headline metric extracted from its result.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cat := catalog.Default()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), cat); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One bench per table and figure -------------------------------------

func BenchmarkFig2bSizeClasses(b *testing.B)      { benchExperiment(b, "fig2b") }
func BenchmarkFig5SafetyModel(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkTable1Specs(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig7Validation(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig9PayloadSweep(b *testing.B)      { benchExperiment(b, "fig9") }
func BenchmarkFig11ComputeSelection(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12Heatsink(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13AlgorithmSelection(b *testing.B) {
	benchExperiment(b, "fig13")
}
func BenchmarkFig14Redundancy(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15FullSystem(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16Accelerators(b *testing.B) {
	benchExperiment(b, "fig16")
}
func BenchmarkTable3CaseStudies(b *testing.B) { benchExperiment(b, "table3") }

// --- Ablation benches -----------------------------------------------------

// BenchmarkAblationKneeFraction sweeps the knee definition η and reports
// where the Pelican+TX2 knee lands — the sensitivity of the one free
// parameter in our knee closed form.
func BenchmarkAblationKneeFraction(b *testing.B) {
	cat := catalog.Default()
	cfgBase, err := cat.BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if err != nil {
		b.Fatal(err)
	}
	for _, eta := range []float64{0.90, 0.95, 0.975, 0.99} {
		b.Run(etaName(eta), func(b *testing.B) {
			cfg := cfgBase
			cfg.KneeFraction = eta
			var knee float64
			for i := 0; i < b.N; i++ {
				an, err := core.Analyze(cfg)
				if err != nil {
					b.Fatal(err)
				}
				knee = an.Knee.Throughput.Hertz()
			}
			b.ReportMetric(knee, "kneeHz")
		})
	}
}

func etaName(eta float64) string {
	switch eta {
	case 0.90:
		return "eta=0.90"
	case 0.95:
		return "eta=0.95"
	case 0.975:
		return "eta=0.975(default)"
	default:
		return "eta=0.99"
	}
}

// BenchmarkAblationAccelModels compares the three acceleration models on
// the same airframe/payload, reporting each a_max.
func BenchmarkAblationAccelModels(b *testing.B) {
	frame := physics.Airframe{
		Name: "S500", BaseMass: units.Grams(1030),
		MotorCount: 4, MotorThrust: units.GramsForce(435),
	}
	payload := units.Grams(400)
	table := physics.MustCalibratedTable([]physics.CalibPoint{
		{Payload: units.Grams(200), Accel: units.MetersPerSecond2(25)},
		{Payload: units.Grams(590), Accel: units.MetersPerSecond2(0.81)},
	})
	models := map[string]physics.AccelModel{
		"pitch-limited":    physics.PitchLimited{UsableThrustFraction: 0.95},
		"thrust-surplus":   physics.ThrustSurplus{},
		"calibrated-table": table,
	}
	for name, m := range models {
		m := m
		b.Run(name, func(b *testing.B) {
			var a units.Acceleration
			for i := 0; i < b.N; i++ {
				a = m.MaxAccel(frame, payload)
			}
			b.ReportMetric(a.MetersPerSecond2(), "amax")
		})
	}
}

// BenchmarkAblationDragEffect measures the simulated safe velocity with
// the F-1-ignored effects switched on and off — the mechanism behind
// the §IV validation error.
func BenchmarkAblationDragEffect(b *testing.B) {
	scenario := flightsim.Scenario{
		ObstacleDistance: units.Meters(3),
		SensorRange:      units.Meters(3),
		DecisionRate:     units.Hertz(10),
		TargetVelocity:   units.MetersPerSecond(1),
	}
	variants := map[string]flightsim.Vehicle{
		"ideal": {
			Mass: units.Kilograms(1.62), MaxAccel: units.MetersPerSecond2(0.814), BrakeDerate: 1,
		},
		"drag+lag": {
			Mass: units.Kilograms(1.62), MaxAccel: units.MetersPerSecond2(0.814),
			Drag:         physics.Drag{Cd: 1.1, Area: 0.05},
			ActuationLag: units.Milliseconds(200), BrakeDerate: 0.97,
		},
	}
	for name, veh := range variants {
		veh := veh
		b.Run(name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				res, err := flightsim.FindSafeVelocity(veh, scenario, flightsim.SearchOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				v = res.SafeVelocity.MetersPerSecond()
			}
			b.ReportMetric(v, "safe_m/s")
		})
	}
}

// BenchmarkAblationPipelineOverlap contrasts Eq. 3 (overlapped) and
// Eq. 2 (lockstep) composition in the executable pipeline model.
func BenchmarkAblationPipelineOverlap(b *testing.B) {
	p := pipeline.SensorComputeControl(units.Hertz(60), units.Hertz(178), units.Hertz(1000))
	for _, mode := range []pipeline.Mode{pipeline.Overlapped, pipeline.Lockstep} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var hz float64
			for i := 0; i < b.N; i++ {
				res, err := pipeline.Simulate(p, mode, 500)
				if err != nil {
					b.Fatal(err)
				}
				hz = res.Throughput.Hertz()
			}
			b.ReportMetric(hz, "Hz")
		})
	}
}

// --- Micro-benchmarks of the hot paths ----------------------------------

func BenchmarkSafeVelocityEq4(b *testing.B) {
	a := units.MetersPerSecond2(10.67)
	d := units.Meters(4.5)
	T := units.Hertz(60).Period()
	for i := 0; i < b.N; i++ {
		_ = core.SafeVelocity(a, d, T)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	cat := catalog.Default()
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCatalogDefault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = catalog.Default()
	}
}

func BenchmarkFlightSimTrial(b *testing.B) {
	veh := flightsim.Vehicle{
		Mass: units.Kilograms(1.62), MaxAccel: units.MetersPerSecond2(0.814),
		Drag:         physics.Drag{Cd: 1.1, Area: 0.05},
		ActuationLag: units.Milliseconds(200), BrakeDerate: 0.97,
	}
	s := flightsim.Scenario{
		ObstacleDistance: units.Meters(3),
		SensorRange:      units.Meters(3),
		DecisionRate:     units.Hertz(10),
		TargetVelocity:   units.MetersPerSecond(1.9),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flightsim.Run(veh, s, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModelCurve(b *testing.B) {
	m := core.Model{Accel: units.MetersPerSecond2(50), Range: units.Meters(10)}
	for i := 0; i < b.N; i++ {
		_ = m.Curve(units.Hertz(0.1), units.Hertz(10000), 300, true)
	}
}

// --- Extension-experiment benches ----------------------------------------

func BenchmarkExtMissionEnergy(b *testing.B)  { benchExperiment(b, "ext-mission") }
func BenchmarkExtDesignTargets(b *testing.B)  { benchExperiment(b, "ext-targets") }
func BenchmarkExtFaultInjection(b *testing.B) { benchExperiment(b, "ext-faults") }
func BenchmarkExtLatencyJitter(b *testing.B)  { benchExperiment(b, "ext-jitter") }
func BenchmarkExtMissionCourse(b *testing.B)  { benchExperiment(b, "ext-course") }
func BenchmarkExtRooflineCheck(b *testing.B)  { benchExperiment(b, "ext-roofline") }

func BenchmarkMissionCourse(b *testing.B) {
	course := flightsim.Course{
		Length:    units.Meters(500),
		Stops:     []units.Length{units.Meters(150), units.Meters(300)},
		Obstacles: []units.Length{units.Meters(80), units.Meters(230), units.Meters(420)},
	}
	cfg := flightsim.MissionConfig{
		Vehicle: flightsim.Vehicle{
			Mass: units.Kilograms(1.2), MaxAccel: units.MetersPerSecond2(10.67),
			ActuationLag: units.Milliseconds(20), BrakeDerate: 1,
		},
		CruiseVelocity: units.MetersPerSecond(6),
		DecisionRate:   units.Hertz(43),
		SensorRange:    units.Meters(4.5),
		HoverPower:     units.Watts(150),
		ComputePower:   units.Watts(15),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flightsim.FlyMission(course, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineJitterSim(b *testing.B) {
	stages := []pipeline.JitterStage{
		{Stage: pipeline.StageHz("sensor", units.Hertz(60))},
		{Stage: pipeline.StageHz("compute", units.Hertz(178)), Jitter: 0.3},
		{Stage: pipeline.StageHz("control", units.Hertz(1000))},
	}
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.SimulateJitter(stages, 2000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateJitterMissionShape prices one mission.stochastic
// candidate's kernel: the objective's three stage jitters (5 %, 30 %,
// 2 %) and 400 samples. Every iteration takes a fresh seed, so unlike
// BenchmarkPipelineJitterSim's single replayed seed the branch
// predictor cannot learn the latencies it partitions.
func BenchmarkSimulateJitterMissionShape(b *testing.B) {
	stages := []pipeline.JitterStage{
		{Stage: pipeline.StageHz("sensor", units.Hertz(60)), Jitter: 0.05},
		{Stage: pipeline.StageHz("compute", units.Hertz(178)), Jitter: 0.30},
		{Stage: pipeline.StageHz("control", units.Hertz(1000)), Jitter: 0.02},
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.SimulateJitterContext(ctx, stages, 400, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDSESweep(b *testing.B) {
	cat := catalog.Default()
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.Sweep(cfg, dse.KnobComputeRate, 1, 200, 50, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- DSE engine benches ---------------------------------------------------
//
// The Enumerate benches run a synthetically enlarged catalog (1280
// candidates) far beyond the paper's presets; their baseline (pre-rework
// serial engine) is recorded in BENCH_dse.json.

func dseBenchSpace(cat *catalog.Catalog) dse.Space {
	return dse.Space{
		UAVs:       cat.UAVNames(),
		Computes:   cat.ComputeNames(),
		Algorithms: cat.AlgorithmNames(),
	}
}

func benchEnumerate(b *testing.B, workers int) {
	cat := catalog.Synthetic(5, 16, 16) // 1280 candidates
	e := dse.Explorer{Catalog: cat, Space: dseBenchSpace(cat), Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := e.Enumerate()
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) != 1280 {
			b.Fatalf("got %d candidates", len(cands))
		}
	}
}

// BenchmarkEnumerateSerial pins the pool to one worker (inline, no
// goroutines) — the baseline for the speedup comparison.
func BenchmarkEnumerateSerial(b *testing.B) { benchEnumerate(b, 1) }

// BenchmarkEnumerateParallel fans out across all available cores. The
// *Parallel benches pin Workers to GOMAXPROCS because the default
// (dse.PoolSize) would run a plain or cheap-objective exploration
// inline: they stay the pool side of each cost class's crossover.
func BenchmarkEnumerateParallel(b *testing.B) { benchEnumerate(b, runtime.GOMAXPROCS(0)) }

// --- Skewed-space benches ------------------------------------------------
//
// The Skewed benches run the same 1280-candidate space with analysis
// cost proportional to the UAV index (catalog.SyntheticSkewed): the
// last airframe's cells cost ~1600 spin iterations each while the
// first's cost none, so a static partition of the space leaves most of
// a fixed-chunk pool idle behind the expensive tail. They exist to
// catch regressions in the chunk runner's load balancing — on a
// multi-core runner the parallel/serial ratio here is the headline
// balancing win.

func benchEnumerateSkewed(b *testing.B, workers int) {
	cat := catalog.SyntheticSkewed(5, 16, 16, 400) // 1280 candidates, heavy tail
	e := dse.Explorer{Catalog: cat, Space: dseBenchSpace(cat), Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := e.Enumerate()
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) != 1280 {
			b.Fatalf("got %d candidates", len(cands))
		}
	}
}

// BenchmarkEnumerateSkewedSerial is the one-worker baseline over the
// skewed space.
func BenchmarkEnumerateSkewedSerial(b *testing.B) { benchEnumerateSkewed(b, 1) }

// BenchmarkEnumerateSkewedParallel fans the skewed space across all
// cores; small claims from the shared chunk counter keep the pool busy
// through the expensive tail.
func BenchmarkEnumerateSkewedParallel(b *testing.B) { benchEnumerateSkewed(b, runtime.GOMAXPROCS(0)) }

// --- Algorithm-heavy benches ----------------------------------------------
//
// The AlgoHeavy benches run a 1280-candidate space whose cross product
// is dominated by the algorithm axis (160 algorithms × 4 computes × 2
// UAVs) over calibrated acceleration tables — a real catalog's a_max
// cost. The algorithm axis never touches the F-1 model, so the plan's
// partial evaluation computes each (UAV, compute, sensor) model partial
// once and reuses it 160×; these benches catch regressions in exactly
// that reuse.

func benchEnumerateAlgoHeavy(b *testing.B, workers int) {
	cat := catalog.SyntheticAlgoHeavy(2, 4, 160) // 1280 candidates, algo-dominated
	e := dse.Explorer{Catalog: cat, Space: dseBenchSpace(cat), Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := e.Enumerate()
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) != 1280 {
			b.Fatalf("got %d candidates", len(cands))
		}
	}
}

// BenchmarkEnumerateAlgoHeavySerial is the one-worker baseline over the
// algorithm-heavy space.
func BenchmarkEnumerateAlgoHeavySerial(b *testing.B) { benchEnumerateAlgoHeavy(b, 1) }

// benchEnumerateMission runs the exploration engine with a
// mission-level objective attached (docs/OBJECTIVES.md): every
// candidate pays the F-1 combine plus the evaluator, so these rows
// price the objective seam itself. The space is smaller than the plain
// enumeration benches (256 vs 1280 candidates) because the simulated
// objectives are orders of magnitude more expensive per candidate.
func benchEnumerateMission(b *testing.B, objective string, workers int) {
	cat := catalog.Synthetic(4, 8, 8) // 256 candidates
	obj, err := dse.NewObjective(objective, cat, 1)
	if err != nil {
		b.Fatal(err)
	}
	e := dse.Explorer{Catalog: cat, Space: dseBenchSpace(cat), Workers: workers, Objective: obj}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands, err := e.Enumerate()
		if err != nil {
			b.Fatal(err)
		}
		if len(cands) != 256 {
			b.Fatalf("got %d candidates", len(cands))
		}
	}
}

// BenchmarkEnumerateMissionThermalSerial prices the cheapest analytic
// evaluator (mission.thermal) on one worker — the objective seam's
// floor overhead over a plain enumeration.
func BenchmarkEnumerateMissionThermalSerial(b *testing.B) {
	benchEnumerateMission(b, "mission.thermal", 1)
}

// BenchmarkEnumerateMissionThermalParallel fans the analytic objective
// across all cores.
func BenchmarkEnumerateMissionThermalParallel(b *testing.B) {
	benchEnumerateMission(b, "mission.thermal", runtime.GOMAXPROCS(0))
}

// BenchmarkEnumerateMissionStochasticSerial prices an expensive
// Monte-Carlo evaluator (mission.stochastic: 400 jittered pipeline
// samples per candidate) on one worker.
func BenchmarkEnumerateMissionStochasticSerial(b *testing.B) {
	benchEnumerateMission(b, "mission.stochastic", 1)
}

// BenchmarkEnumerateMissionStochasticParallel fans the Monte-Carlo
// objective across all cores — the case the worker pool exists for:
// per-candidate cost dwarfs scheduling overhead.
func BenchmarkEnumerateMissionStochasticParallel(b *testing.B) {
	benchEnumerateMission(b, "mission.stochastic", runtime.GOMAXPROCS(0))
}

// BenchmarkEnumerateAlgoHeavyParallel fans the algorithm-heavy space
// across all cores.
func BenchmarkEnumerateAlgoHeavyParallel(b *testing.B) {
	benchEnumerateAlgoHeavy(b, runtime.GOMAXPROCS(0))
}

// --- Skewed-sweep benches -------------------------------------------------
//
// Plan-level partial evaluation hoists SyntheticSkewed's per-UAV model
// cost out of the per-candidate path (the EnumerateSkewed benches now
// record that hoisting win), so those benches no longer present the
// scheduler with skewed per-item cost. A payload sweep is the workload
// that still does: the payload is the a_max lookup's own input, so no
// partial can cache it, and PayloadSpinAccel makes each point's cost
// proportional to its payload value — point i is linearly more
// expensive than point 0. These benches are the post-factoring
// regression probe for the chunk runner's load balancing; on a
// multi-core runner their parallel/serial ratio is the gate the CI
// bench-multicore job asserts.

func benchSweepPayloadSkewed(b *testing.B, workers int) {
	cfg := core.Config{
		Name: "skewed-sweep",
		Frame: physics.Airframe{
			Name: "sweep-frame", BaseMass: units.Grams(1030),
			MotorCount: 4, MotorThrust: units.GramsForce(650),
		},
		AccelModel:  catalog.PayloadSpinAccel(60),
		Payload:     units.Grams(100), // overridden by the swept knob
		SensorRate:  units.Hertz(60),
		SensorRange: units.Meters(4.5),
		ComputeRate: units.Hertz(178),
		ControlRate: units.Hertz(1000),
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.SweepContext(ctx, cfg, dse.KnobPayload, 1, 1200, 256, false, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepPayloadSkewedSerial is the one-worker baseline.
func BenchmarkSweepPayloadSkewedSerial(b *testing.B) { benchSweepPayloadSkewed(b, 1) }

// BenchmarkSweepPayloadSkewedParallel fans the skewed sweep across all
// cores; small claims from the shared chunk counter keep workers busy
// through the expensive high-payload tail.
func BenchmarkSweepPayloadSkewedParallel(b *testing.B) {
	benchSweepPayloadSkewed(b, runtime.GOMAXPROCS(0))
}

// BenchmarkEnumerateStream measures the iter.Seq2 streaming path with a
// constraint filter applied by the consumer, at the default pool size:
// a plain exploration, so the chunk loop runs inline.
func BenchmarkEnumerateStream(b *testing.B) {
	cat := catalog.Synthetic(5, 16, 16)
	e := dse.Explorer{Catalog: cat, Space: dseBenchSpace(cat)}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for cand, err := range e.Candidates(ctx) {
			if err != nil {
				b.Fatal(err)
			}
			if cand.Analysis.SafeVelocity.MetersPerSecond() > 5 {
				n++
			}
		}
		if n == 0 {
			b.Fatal("no fast candidates")
		}
	}
}

// BenchmarkParetoFront exercises the sort-based two-objective skyline
// on the enlarged candidate slate (baseline: the O(n²) all-pairs scan).
func BenchmarkParetoFront(b *testing.B) {
	cat := catalog.Synthetic(5, 16, 16)
	cands, err := dse.Enumerate(cat, dseBenchSpace(cat), dse.Constraints{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.ParetoFront(cands, dse.MaxVelocity, dse.MinPower); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoFront3D exercises the k>=3 sort-filter scan.
func BenchmarkParetoFront3D(b *testing.B) {
	cat := catalog.Synthetic(5, 16, 16)
	cands, err := dse.Enumerate(cat, dseBenchSpace(cat), dse.Constraints{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dse.ParetoFront(cands, dse.MaxVelocity, dse.MinPower, dse.MinPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopK contrasts the bounded heap against a full Rank.
func BenchmarkTopK(b *testing.B) {
	cat := catalog.Synthetic(5, 16, 16)
	cands, err := dse.Enumerate(cat, dseBenchSpace(cat), dse.Constraints{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("top10-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dse.TopK(cands, dse.MaxVelocity, 10)
		}
	})
	b.Run("full-rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = dse.Rank(cands, dse.MaxVelocity)
		}
	})
}

func BenchmarkDSEEnumerate(b *testing.B) {
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVAscTecPelican, catalog.UAVDJISpark},
		Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2, catalog.ComputeRasPi4},
		Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet, catalog.AlgoCAD2RL, catalog.AlgoVGG16},
	}
	e := dse.Explorer{Catalog: cat, Space: space}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Enumerate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSensitivity(b *testing.B) {
	m := core.Model{Accel: units.MetersPerSecond2(10.67), Range: units.Meters(4.5)}
	for i := 0; i < b.N; i++ {
		if _, err := m.SensitivityAt(units.Hertz(10)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtBatterySag(b *testing.B) { benchExperiment(b, "ext-battery") }

func BenchmarkExtGridHeatmap(b *testing.B) { benchExperiment(b, "ext-grid") }

func BenchmarkFleetMissions(b *testing.B) {
	spec := flightsim.CourseSpec{Length: units.Meters(300), Stops: 2, Obstacles: 3}
	cfg := flightsim.MissionConfig{
		Vehicle: flightsim.Vehicle{
			Mass: units.Kilograms(1.2), MaxAccel: units.MetersPerSecond2(10.67),
			ActuationLag: units.Milliseconds(20), BrakeDerate: 1,
		},
		CruiseVelocity: units.MetersPerSecond(6),
		DecisionRate:   units.Hertz(43),
		SensorRange:    units.Meters(4.5),
		HoverPower:     units.Watts(150),
		ComputePower:   units.Watts(15),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flightsim.FlyFleet(spec, cfg, 4, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatteryEndurance(b *testing.B) {
	pack := mission.Typical3S()
	for i := 0; i < b.N; i++ {
		if _, err := pack.Endurance(units.Watts(165)); err != nil {
			b.Fatal(err)
		}
	}
}
