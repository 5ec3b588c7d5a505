// Package skyline is the interactive web tool for the F-1 model
// (§V of the paper): a stdlib net/http server with the paper's three
// areas — UAV system parameter knobs, a visualization area (the F-1
// plot rendered server-side as SVG), and an automatic analysis pane
// with bound/bottleneck classification and optimization tips.
//
// # Endpoints
//
//	/                GET  the interactive page (preset + Table II knobs)
//	/plot.svg        GET  the F-1 roofline figure for one configuration
//	/api/analyze     GET  the analysis as JSON
//	/compare.svg     GET  overlay up to 8 rooflines (config=UAV|Compute|Algo)
//	/api/compare     GET  the comparison table as JSON
//	/sweep.svg       GET  one-knob sweep (knob=, lo=, hi=, n=, log=)
//	/explore         GET  design-space exploration streamed as NDJSON.
//	                      Space: uav=, compute=, algorithm=, sensor=
//	                      (repeatable or comma-separated; omitted = whole
//	                      catalog; sensor=default names the UAV's own
//	                      sensor). Constraints: max_payload_g=,
//	                      max_power_w=, min_velocity_ms=. Scoring:
//	                      objective=mission.* attaches a mission-level
//	                      evaluator (endurance, battery, thermal,
//	                      redundancy, flightsim, stochastic — see
//	                      docs/OBJECTIVES.md) whose named metric columns
//	                      are appended to every NDJSON line; seed= sets
//	                      the Monte-Carlo base seed (default 1, so
//	                      identical requests are byte-identical).
//	                      Selection: top=K with
//	                      rank=velocity|power|payload|balance or any
//	                      active objective column name, or
//	                      pareto=velocity,power[,payload] (objective
//	                      columns accepted there too). Without
//	                      top/pareto, candidates stream incrementally in
//	                      canonical order (the first line is flushed
//	                      immediately, later lines at most once per
//	                      10 ms) and a dropped connection
//	                      cancels the exploration's workers. workers=N
//	                      bounds the request's worker pool, clamped to
//	                      the server's per-request cap. Only a heavy
//	                      objective (mission.battery, mission.flightsim,
//	                      mission.stochastic) runs on that pool; plain
//	                      and cheap-objective explorations run inline on
//	                      one worker. The X-Explore-Workers header
//	                      echoes the pool size actually used.
//	/grid.svg        GET  two-knob GridSweep heatmap. Axes: x=, y= (one
//	                      of payload|range|sensor|compute), bounds
//	                      xlo=, xhi=, ylo=, yhi=, resolution nx=, ny=
//	                      (default 40×30), plus the base configuration
//	                      parameters of /plot.svg. objective= (preset
//	                      mode only) rescores every cell with a mission
//	                      evaluator; metric= picks the rendered column
//	                      and seed= the Monte-Carlo base seed.
//	/healthz         GET  liveness plus operational gauges as JSON: the
//	                      admission-control state (in-flight, limit,
//	                      queue depth/bound, shed/degraded/panic counts,
//	                      quota clients, per-request worker cap), and —
//	                      when the persistent result store is enabled —
//	                      the store gauges (artifacts, bytes,
//	                      hits/misses, quarantined, degraded state).
//	/metrics         GET  the same gauges in the Prometheus text format,
//	                      plus the series /healthz cannot carry: queue
//	                      depth and wait-time quantiles, shed counts by
//	                      reason (queue_full, over_quota, deadline),
//	                      recovered-panic and degradation counters,
//	                      per-endpoint request counts and latency
//	                      quantiles (p50/p90/p99 over a recent window),
//	                      and the store series (lookups by outcome,
//	                      responses served from disk by kind, spills,
//	                      quarantines, I/O errors, degraded trips).
//
// Numeric knobs shared with /plot.svg (tdp_w, payload_g, sensor_hz, …)
// reject negative values and NaN with a 400. +Inf is legal for rate
// knobs ("this stage is free") — any non-finite analysis outputs it
// produces are encoded as JSON null rather than failing the response —
// while an infinite mass fails configuration validation (400) and
// sweep/grid axis bounds must be finite outright.
//
// The SVG endpoints render to memory before writing, so a rendering
// failure is a clean 500 — error text is never spliced into a
// partially streamed 200 chart.
//
// # Admission and deadlines
//
// Servers built with NewServerWith apply admission control to the
// engine-driven endpoints (/explore, /grid.svg, /sweep.svg): at most
// Options.MaxInflight explorations run concurrently, and excess
// requests wait in a bounded FIFO queue (Options.QueueDepth; default
// 4×MaxInflight, negative disables queueing) until a slot frees or
// their deadline expires. Slots are granted strictly in arrival
// order. A full queue sheds with 429 Too Many Requests; a deadline
// that expires while queued or mid-exploration answers 503 Service
// Unavailable. Both carry a Retry-After header estimated from the
// observed queue depth and an EWMA of recent service times — not a
// constant. In-flight streams are never throttled.
//
// Options.DefaultTimeout bounds each engine-driven request's wall
// time; the timeout= query knob ("500ms", "2s", or bare seconds)
// requests less, clamped to the server default. The deadline
// propagates through the exploration engine and its evaluators, so an
// expired request stops consuming cores mid-space. The page endpoints
// (/, /plot.svg, /api/analyze) run one analysis each and take no
// deadline: they ignore timeout=.
//
// Options.ClientRPS meters clients (keyed by X-API-Key, else remote
// address) with token buckets of max(1, 2×ClientRPS) tokens. Idle capacity ignores quotas — a free
// slot is never wasted — but under saturation over-quota clients are
// shed first, and the lightweight endpoints (/api/analyze, /plot.svg,
// /compare.svg, /api/compare) answer 429 outright when a client's
// bucket is dry.
//
// While the queue sits past its high-water mark, an unbounded /explore
// is downgraded to a capped top-K response (top=50) flagged via the
// X-Explore-Degraded header: under overload every client gets a useful
// ranking instead of one client getting the whole space.
//
// Every handler runs behind panic-recovery middleware: a panic becomes
// a clean 500 (when the response has not started) and a counter
// increment, never a dead process.
//
// Each request's worker pool is clamped to
// Options.MaxWorkersPerRequest so one client cannot monopolize the
// cores: the engine-driven endpoints accept the workers= knob and echo
// the pool size they ran in X-Explore-Workers (on /explore, 1 unless
// the objective is heavy enough to pay for the pool). Nothing is
// memoized per analysis: the page endpoints call core.Analyze and
// /explore recomputes each candidate from the plan's precomputed
// partials, both no slower than a cache probe. Whole responses are
// reused through the persistent result store.
//
// cmd/skyline exposes these as -max-inflight, -queue-depth,
// -default-timeout, -client-rps and -max-workers-per-request flags.
//
// # Persistence
//
// Options.Store attaches the crash-safe persistent result tier
// (internal/store; cmd/skyline's -store-dir / -store-limit-bytes
// flags). Completed /explore and /grid.svg responses are spilled to
// disk as content-addressed artifacts keyed by the canonical request —
// catalog fingerprint, space, constraints, objective and seed — and a
// repeat request, including one arriving after a server restart, is
// answered byte-identically from the artifact without re-running the
// engine (X-Explore-Store: hit). A constraint-tightened streaming
// /explore is answered by filtering the stored unconstrained superset
// (X-Explore-Store: filtered). Artifacts are checksummed on every
// read: corruption quarantines the file and the request falls through
// to recompute; persistent store I/O failure trips a recompute-only
// degraded state surfaced on /healthz and /metrics. The key grammar,
// on-disk layout and atomicity contract are in docs/PERSISTENCE.md.
//
// The serving path's cross-cutting invariants — request contexts flow
// into every engine call, JSON-reachable floats go through JSONFloat
// (the model legitimately produces ±Inf, which json.Marshal rejects
// raw), and emitted output never depends on map iteration order — are
// mechanized by the internal/lint analyzers and gated in CI via
// cmd/reprolint; see docs/INVARIANTS.md.
package skyline

import (
	"fmt"
	"math"
	"net/url"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/physics"
	"repro/internal/units"
)

// Params are the Table II knobs, parsed from the request. Two modes:
// preset (catalog components by name) and custom (raw numbers).
type Params struct {
	// Mode is "preset" or "custom".
	Mode string

	// Preset mode.
	UAV       string
	Compute   string
	Algorithm string
	TDPW      float64 // optional TDP override, watts

	// Custom mode (Table II user-defined knobs).
	DroneWeightG   float64 // max weight without payload
	RotorPullGF    float64 // single-rotor thrust
	PayloadG       float64 // payload weight excluding auto heatsink
	SensorHz       float64 // sensor framerate
	SensorRangeM   float64 // sensor range
	ComputeRuntime float64 // autonomy algorithm latency, seconds
	ControlHz      float64 // flight controller rate
}

// parseFloat reads one float field, tolerating absence (0).
func parseFloat(q url.Values, key string) (float64, error) {
	s := q.Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("skyline: parameter %q: %v is not a number", key, s)
	}
	return v, nil
}

// parseNonNeg reads one non-negative float field, tolerating absence
// (0 = unset) — the rule for every physical knob and constraint. NaN
// (which strconv.ParseFloat accepts and every comparison waves
// through) is rejected; +Inf is legal — an Inf-rate knob is how a
// client asks "what if this stage were free?", and the analysis and
// its JSON encoding handle it.
func parseNonNeg(q url.Values, key string) (float64, error) {
	v, err := parseFloat(q, key)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("skyline: parameter %q: NaN is not a value", key)
	}
	if v < 0 {
		return 0, fmt.Errorf("skyline: parameter %q: %v is negative", key, v)
	}
	return v, nil
}

// ParseParams extracts knobs from a query string.
func ParseParams(q url.Values) (Params, error) {
	p := Params{
		Mode:      q.Get("mode"),
		UAV:       q.Get("uav"),
		Compute:   q.Get("compute"),
		Algorithm: q.Get("algorithm"),
	}
	if p.Mode == "" {
		p.Mode = "preset"
	}
	if p.Mode != "preset" && p.Mode != "custom" {
		return Params{}, fmt.Errorf("skyline: unknown mode %q (want preset or custom)", p.Mode)
	}
	var err error
	read := func(key string, dst *float64) {
		if err != nil {
			return
		}
		// Every numeric knob is a physical quantity (mass, rate, power,
		// time): negatives can only produce nonsense configs, so reject
		// them at the boundary instead of analyzing garbage.
		*dst, err = parseNonNeg(q, key)
	}
	read("tdp_w", &p.TDPW)
	read("drone_weight_g", &p.DroneWeightG)
	read("rotor_pull_gf", &p.RotorPullGF)
	read("payload_g", &p.PayloadG)
	read("sensor_hz", &p.SensorHz)
	read("sensor_range_m", &p.SensorRangeM)
	read("compute_runtime_s", &p.ComputeRuntime)
	read("control_hz", &p.ControlHz)
	if err != nil {
		return Params{}, err
	}
	return p, nil
}

// Config resolves the params into an analyzable configuration.
func (p Params) Config(cat *catalog.Catalog) (core.Config, error) {
	if p.Mode == "custom" {
		return p.customConfig(cat)
	}
	sel := catalog.Selection{
		UAV:       defaultStr(p.UAV, catalog.UAVAscTecPelican),
		Compute:   defaultStr(p.Compute, catalog.ComputeTX2),
		Algorithm: defaultStr(p.Algorithm, catalog.AlgoDroNet),
	}
	if p.TDPW > 0 {
		sel.TDPOverride = units.Watts(p.TDPW)
	}
	return cat.BuildConfig(sel)
}

func (p Params) customConfig(cat *catalog.Catalog) (core.Config, error) {
	if p.DroneWeightG <= 0 || p.RotorPullGF <= 0 {
		return core.Config{}, fmt.Errorf("skyline: custom mode needs drone_weight_g and rotor_pull_gf")
	}
	if p.SensorRangeM <= 0 || p.SensorHz <= 0 {
		return core.Config{}, fmt.Errorf("skyline: custom mode needs sensor_hz and sensor_range_m")
	}
	if p.ComputeRuntime <= 0 {
		return core.Config{}, fmt.Errorf("skyline: custom mode needs compute_runtime_s")
	}
	controlHz := p.ControlHz
	if controlHz == 0 {
		controlHz = 1000
	}
	payload := units.Grams(p.PayloadG)
	// The TDP knob sizes a heatsink which joins the payload — the
	// coupling the paper's §V walkthrough describes.
	if p.TDPW > 0 {
		payload += cat.Heatsink.HeatsinkMass(units.Watts(p.TDPW))
	}
	frame := physics.Airframe{
		Name:        "custom",
		BaseMass:    units.Grams(p.DroneWeightG),
		MotorCount:  4,
		MotorThrust: units.GramsForce(p.RotorPullGF),
	}
	if err := frame.Validate(); err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Name:        "custom UAV",
		Frame:       frame,
		AccelModel:  physics.PitchLimited{UsableThrustFraction: 0.95},
		Payload:     payload,
		SensorRate:  units.Hertz(p.SensorHz),
		SensorRange: units.Meters(p.SensorRangeM),
		ComputeRate: units.Seconds(p.ComputeRuntime).Frequency(),
		ControlRate: units.Hertz(controlHz),
	}, nil
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
