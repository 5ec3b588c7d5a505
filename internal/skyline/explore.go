package skyline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/units"
)

// ExploreRequest is the parsed /explore query: a design space, pruning
// constraints, an optional mission-level objective scoring each
// candidate, and an optional selection pass (top-K under one ranking,
// or a Pareto frontier over several).
type ExploreRequest struct {
	Space       dse.Space
	Constraints dse.Constraints

	// Objective is the mission-level evaluator behind objective=, nil
	// for a plain F-1 exploration. ObjectiveName is its registry name.
	Objective     dse.Evaluator
	ObjectiveName string

	// TopK > 0 selects the K best candidates under Rank.
	TopK int
	Rank dse.Objective
	// RankName is the query-string name behind Rank (for messages).
	RankName string

	// Pareto non-empty selects the Pareto frontier over these
	// objectives. Mutually exclusive with TopK.
	Pareto      []dse.Objective
	ParetoNames []string
}

// objectives maps query-string names onto ranking objectives.
var objectives = map[string]dse.Objective{
	"velocity": dse.MaxVelocity,
	"power":    dse.MinPower,
	"payload":  dse.MinPayload,
	"balance":  dse.Balance,
}

// objectiveNames lists the accepted rank/pareto names for error text:
// the built-in F-1 rankings, plus the active objective's metric
// columns when one is selected.
func objectiveNames(ev dse.Evaluator) string {
	base := "velocity, power, payload or balance"
	if ev == nil {
		return base
	}
	cols := ev.Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return strings.Join(names, ", ") + ", " + base
}

// rankBy resolves a rank= or pareto= name: the active objective's
// metric columns take precedence (so "endurance_s" ranks on the
// evaluator output), then the built-in F-1 rankings.
func rankBy(name string, ev dse.Evaluator) (dse.Objective, bool) {
	if ev != nil {
		cols := ev.Columns()
		if i := dse.ColumnIndex(cols, name); i >= 0 {
			return dse.ColumnObjective(cols, i), true
		}
	}
	obj, ok := objectives[name]
	return obj, ok
}

// axisValues gathers one space axis from the query: the key may repeat
// and each value may be a comma-separated list, validated against the
// catalog so a typo becomes a 400 instead of a mid-stream failure. A
// raw value that is itself a known catalog name is taken whole —
// several preset names contain commas ("RGB-D camera (60 FPS, 4.5 m)")
// and must not be split. An omitted key yields the (already valid)
// fallback unchecked.
func axisValues(q url.Values, key string, fallback []string, known func(string) bool) ([]string, error) {
	var out []string
	for _, raw := range q[key] {
		if trimmed := strings.TrimSpace(raw); known(trimmed) {
			out = append(out, trimmed)
			continue
		}
		for _, v := range strings.Split(raw, ",") {
			if v = strings.TrimSpace(v); v == "" {
				continue
			} else if !known(v) {
				return nil, fmt.Errorf("skyline: explore: unknown %s %q", key, v)
			} else {
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 {
		return fallback, nil
	}
	return out, nil
}

// ParseExplore extracts an exploration request from query parameters,
// resolving every named axis value against the catalog so typos become
// a 400 instead of a mid-stream failure. On the sensor axis the
// keyword "default" names the UAV's own sensor, so it can be compared
// against named sensors in one request (an omitted sensor= means
// default only).
func ParseExplore(cat *catalog.Catalog, q url.Values) (ExploreRequest, error) {
	knownUAV := func(s string) bool { _, err := cat.UAV(s); return err == nil }
	knownCompute := func(s string) bool { _, err := cat.Compute(s); return err == nil }
	knownAlgo := func(s string) bool { _, err := cat.Algorithm(s); return err == nil }
	knownSensor := func(s string) bool {
		if s == "default" {
			return true
		}
		_, err := cat.Sensor(s)
		return err == nil
	}
	var req ExploreRequest
	var err error
	if req.Space.UAVs, err = axisValues(q, "uav", cat.UAVNames(), knownUAV); err != nil {
		return ExploreRequest{}, err
	}
	if req.Space.Computes, err = axisValues(q, "compute", cat.ComputeNames(), knownCompute); err != nil {
		return ExploreRequest{}, err
	}
	if req.Space.Algorithms, err = axisValues(q, "algorithm", cat.AlgorithmNames(), knownAlgo); err != nil {
		return ExploreRequest{}, err
	}
	if req.Space.Sensors, err = axisValues(q, "sensor", nil, knownSensor); err != nil {
		return ExploreRequest{}, err
	}
	for i, s := range req.Space.Sensors {
		if s == "default" {
			req.Space.Sensors[i] = "" // dse.Space's spelling of the UAV default
		}
	}

	maxPayload, err := parseNonNeg(q, "max_payload_g")
	if err != nil {
		return ExploreRequest{}, err
	}
	maxPower, err := parseNonNeg(q, "max_power_w")
	if err != nil {
		return ExploreRequest{}, err
	}
	minVelocity, err := parseNonNeg(q, "min_velocity_ms")
	if err != nil {
		return ExploreRequest{}, err
	}
	req.Constraints = dse.Constraints{
		MaxPayload:  units.Grams(maxPayload),
		MaxPower:    units.Watts(maxPower),
		MinVelocity: units.MetersPerSecond(minVelocity),
	}

	req.ObjectiveName = q.Get("objective")
	seed, hasSeed, err := parseSeed(q)
	if err != nil {
		return ExploreRequest{}, err
	}
	if req.ObjectiveName != "" {
		// The default base seed is 1, not time-derived: two identical
		// requests must produce byte-identical responses.
		if req.Objective, err = dse.NewObjective(req.ObjectiveName, cat, seed); err != nil {
			return ExploreRequest{}, fmt.Errorf("skyline: explore: %w", err)
		}
	} else if hasSeed {
		return ExploreRequest{}, fmt.Errorf("skyline: explore: seed= needs objective=")
	}

	if ts := q.Get("top"); ts != "" {
		k, err := strconv.Atoi(ts)
		if err != nil || k < 1 {
			return ExploreRequest{}, fmt.Errorf("skyline: explore parameter top must be a positive integer, got %q", ts)
		}
		req.TopK = k
	}
	req.RankName = q.Get("rank")
	if req.RankName == "" {
		if req.Objective != nil {
			// An objective exploration ranks on its own first column by
			// default — the evaluator's headline metric.
			req.RankName = req.Objective.Columns()[0].Name
		} else {
			req.RankName = "velocity"
		}
	}
	obj, ok := rankBy(req.RankName, req.Objective)
	if !ok {
		return ExploreRequest{}, fmt.Errorf("skyline: explore: unknown rank objective %q (want %s)", req.RankName, objectiveNames(req.Objective))
	}
	req.Rank = obj
	if q.Get("rank") != "" && req.TopK == 0 {
		return ExploreRequest{}, fmt.Errorf("skyline: explore: rank= needs top=K")
	}

	if ps := q.Get("pareto"); ps != "" {
		if req.TopK > 0 {
			return ExploreRequest{}, fmt.Errorf("skyline: explore: top and pareto are mutually exclusive")
		}
		for _, name := range strings.Split(ps, ",") {
			name = strings.TrimSpace(name)
			obj, ok := rankBy(name, req.Objective)
			if !ok {
				return ExploreRequest{}, fmt.Errorf("skyline: explore: unknown pareto objective %q (want %s)", name, objectiveNames(req.Objective))
			}
			req.Pareto = append(req.Pareto, obj)
			req.ParetoNames = append(req.ParetoNames, name)
		}
	}
	return req, nil
}

// parseSeed reads the seed= knob: the base seed for Monte-Carlo
// objectives. Absent defaults to 1 so identical requests are
// byte-identical; 0 is normalized to 1 by the objective registry.
func parseSeed(q url.Values) (seed int64, present bool, err error) {
	s := q.Get("seed")
	if s == "" {
		return 1, false, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, true, fmt.Errorf("skyline: parameter seed must be an integer, got %q", s)
	}
	return v, true, nil
}

// MetricJSON is one named objective metric on an /explore NDJSON line,
// emitted in the evaluator's column order (never map order). The value
// sanitizes through JSONFloat: an unscorable candidate's ±Inf marker
// encodes as null.
type MetricJSON struct {
	Name  string    `json:"name"`
	Value JSONFloat `json:"value"`
}

// ExploreCandidateJSON is one /explore NDJSON line, the shape clients
// decode. The server writes it with lineEncoder rather than through
// encoding/json; the bytes are the same.
type ExploreCandidateJSON struct {
	Name      string    `json:"name"`
	UAV       string    `json:"uav"`
	Compute   string    `json:"compute"`
	Algorithm string    `json:"algorithm"`
	Sensor    string    `json:"sensor,omitempty"`
	VSafeMS   JSONFloat `json:"v_safe_ms"`
	ActionHz  JSONFloat `json:"action_hz"`
	KneeHz    JSONFloat `json:"knee_hz"`
	PowerW    JSONFloat `json:"power_w"`
	PayloadG  JSONFloat `json:"payload_g"`
	Bound     string    `json:"bound"`
	Class     string    `json:"class"`
	// GapFactor is omitted when not finite (a zero-throughput design).
	GapFactor JSONFloat `json:"gap_factor,omitempty"`
	// Objective and Metrics appear only on objective= explorations.
	Objective string       `json:"objective,omitempty"`
	Metrics   []MetricJSON `json:"metrics,omitempty"`
}

// exploreFlushInterval is the streaming /explore flush budget: the
// first line is flushed at once, later lines at most once per
// interval. Between flushes net/http's response buffer batches lines
// into large socket writes instead of one chunked write per candidate.
const exploreFlushInterval = 10 * time.Millisecond

// lineEncoder writes one response's /explore NDJSON lines: the
// ExploreCandidateJSON shape, newline-terminated, byte-identical to
// json.Encoder's encoding of that struct with its omitempty fields
// (jsonappend_test.go diffs the two, line by line and over whole
// sequences). It is the single encoder of both the streaming path and
// the buffered top-K/Pareto path.
//
// Everything the axes determine is encoded before the response starts:
// the line head {"name":…,"uav":…,"compute":…,"algorithm":… comes from
// the compiled space's prefix table, by the candidate's cell
// (dse.Candidate.Index), so no name is escaped per line. Of the rest,
// candidates arrive in long runs that share their sensor, knee, power,
// payload, bound and class, so the encoder keeps the previous line's
// encoding of each of those fields and re-encodes one only when it
// changes (string inequality for strings, math.Float64bits inequality
// for floats). The run memos live for one response: a lineEncoder is
// never shared across requests.
type lineEncoder struct {
	// space is the compiled space the candidates come from; its prefix
	// table supplies each line's head.
	space *compiledSpace
	// objName and cols are the active objective's registry name and
	// columns ("" and nil on plain explorations).
	objName string
	cols    []dse.ObjectiveColumn

	sensor, bound, class memoString
	knee, power, payload memoFloat
}

// memoString is one string field's last value and its JSON encoding,
// kept in a fixed array so the memo never allocates. A value whose
// encoding outgrows the array is simply not memoized.
type memoString struct {
	val string
	ok  bool // enc[:n] encodes val
	n   int
	enc [64]byte
}

//reprolint:hotpath
func (m *memoString) append(dst []byte, s string) []byte {
	if m.ok && s == m.val {
		return append(dst, m.enc[:m.n]...)
	}
	start := len(dst)
	dst = appendJSONString(dst, s)
	m.val, m.ok = s, len(dst)-start <= len(m.enc)
	m.n = copy(m.enc[:], dst[start:])
	return dst
}

// memoFloat is one float field's last value and its JSONFloat
// encoding, like memoString. The value is compared as bits, so +0 and
// -0 (which encode differently) are distinct and a repeated NaN hits.
type memoFloat struct {
	bits uint64
	ok   bool // enc[:n] encodes bits
	n    int
	enc  [32]byte
}

//reprolint:hotpath
func (m *memoFloat) append(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	if m.ok && b == m.bits {
		return append(dst, m.enc[:m.n]...)
	}
	start := len(dst)
	dst = appendJSONFloat(dst, f)
	m.bits, m.ok = b, len(dst)-start <= len(m.enc)
	m.n = copy(m.enc[:], dst[start:])
	return dst
}

// appendLine appends c's NDJSON line to dst.
//
//reprolint:hotpath
func (e *lineEncoder) appendLine(dst []byte, c *dse.Candidate) []byte {
	an := &c.Analysis
	dst = append(dst, e.space.prefix(c.Index)...)
	if c.Selection.Sensor != "" {
		dst = append(dst, `,"sensor":`...)
		dst = e.sensor.append(dst, c.Selection.Sensor)
	}
	dst = append(dst, `,"v_safe_ms":`...)
	dst = appendJSONFloat(dst, an.SafeVelocity.MetersPerSecond())
	// A non-finite action rate is written as 0 and a non-finite gap
	// factor is omitted, keeping the wire format of the raw-float64
	// encoder that predates null encoding.
	dst = append(dst, `,"action_hz":`...)
	if v := an.Action.Hertz(); math.IsInf(v, 0) || math.IsNaN(v) {
		dst = append(dst, '0')
	} else {
		dst = appendJSONFloat(dst, v)
	}
	dst = append(dst, `,"knee_hz":`...)
	dst = e.knee.append(dst, an.Knee.Throughput.Hertz())
	dst = append(dst, `,"power_w":`...)
	dst = e.power.append(dst, c.Power.Watts())
	dst = append(dst, `,"payload_g":`...)
	dst = e.payload.append(dst, an.Config.Payload.Grams())
	dst = append(dst, `,"bound":`...)
	dst = e.bound.append(dst, an.Bound.String())
	dst = append(dst, `,"class":`...)
	dst = e.class.append(dst, an.Class.String())
	if g := an.GapFactor; g != 0 && !math.IsInf(g, 0) && !math.IsNaN(g) {
		dst = append(dst, `,"gap_factor":`...)
		dst = appendJSONFloat(dst, g)
	}
	if e.objName != "" && len(c.Metrics) == len(e.cols) {
		dst = append(dst, `,"objective":`...)
		dst = appendJSONString(dst, e.objName)
		if len(e.cols) > 0 {
			dst = append(dst, `,"metrics":[`...)
			for i := range e.cols {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"name":`...)
				dst = appendJSONString(dst, e.cols[i].Name)
				dst = append(dst, `,"value":`...)
				dst = appendJSONFloat(dst, c.Metrics[i])
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
	}
	return append(dst, '}', '\n')
}

// requestWorkers resolves the workers= query knob against the server's
// per-request cap: absent or oversized requests get the cap, explicit
// smaller requests are honored, and garbage is a 400. /grid.svg and
// /sweep.svg run their pool at the resolved size; /explore treats it as
// the most dse.PoolSize may pick. Every engine-driven endpoint echoes
// the pool size it ran in the X-Explore-Workers header.
func (s *Server) requestWorkers(q url.Values) (int, error) {
	ws := q.Get("workers")
	if ws == "" {
		return s.maxWorkers, nil
	}
	n, err := strconv.Atoi(ws)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("skyline: parameter workers must be a positive integer, got %q", ws)
	}
	return min(n, s.maxWorkers), nil
}

// handleExplore serves the design-space exploration as NDJSON. Without
// a selection pass the candidates stream in canonical order as the
// engine produces them, grain by grain. The first line is flushed at once, so it arrives
// long before a large sweep finishes; after that the stream flushes at
// most once per exploreFlushInterval, and net/http's response buffer
// turns the lines in between into large socket writes. The request
// context scopes the work: a dropped client cancels the exploration's
// workers mid-space, and the timeout= knob (or server default) bounds
// it in time. The request waits in the server's admission queue for a
// slot (429 only when the queue itself is full or the client is over
// quota). Its pool is dse.PoolSize of the requested size, clamped to
// the per-request cap: the whole clamped pool for a heavy objective
// (mission.battery, mission.flightsim, mission.stochastic), one inline
// worker for a plain or cheap-objective exploration. The pool size
// actually used is echoed in the X-Explore-Workers header. While
// the queue is past its high-water mark an unbounded exploration is
// downgraded to a capped top-K response, flagged via
// X-Explore-Degraded.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	req, err := ParseExplore(s.cat, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	workers, err := s.requestWorkers(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	// Graceful degradation decides at arrival: an unbounded exploration
	// joining a queue past its high-water mark would stream the whole
	// space to one client while others wait. Downgrade it to a capped
	// ranking — same work per candidate, a bounded response. (Sampled
	// before admission: by the time this request gets its slot the
	// queue it waited in has, by definition, drained below the mark.)
	degrade := req.TopK == 0 && len(req.Pareto) == 0 && s.adm.saturated()

	// Persistent-store fast path, checked before admission: a warm
	// repeat is disk I/O, not engine work, so it neither waits for nor
	// holds an exploration slot — exactly what keeps a restarted
	// server responsive while its compiled-space table is still cold. A
	// degraded request skips the store: its mutated top-K shape must
	// not be stored under (or served from) the canonical key. Any
	// store failure falls through to recompute.
	var storeKey string
	if s.store != nil && !degrade {
		storeKey = exploreStoreKey(s.catRev, req)
		if body, ok := s.store.Get(storeKey); ok {
			s.metrics.storeExplore.Add(1)
			serveStored(w, "application/x-ndjson", "hit", body)
			return
		}
		// A constrained streaming request is a pure filter over its
		// unconstrained superset: surviving lines are re-emitted with
		// their original bytes, so the response matches an engine run.
		if req.TopK == 0 && len(req.Pareto) == 0 && req.Constraints != (dse.Constraints{}) {
			if body, ok := s.store.Get(supersetKey(s.catRev, req)); ok {
				if filtered, fok := filterStored(body, req.Constraints); fok {
					s.metrics.storeFiltered.Add(1)
					serveStored(w, "application/x-ndjson", "filtered", filtered)
					return
				}
			}
		}
	}

	release, ok := s.admitHeavy(ctx, w, r)
	if !ok {
		return
	}
	defer release()

	if degrade {
		req.TopK = defaultDegradeTopK
		s.adm.degradedTotal.Add(1)
		w.Header().Set("X-Explore-Degraded", fmt.Sprintf("top=%d", req.TopK))
	}

	// Only a heavy objective pays for the pool; everything else runs
	// inline, and the header reports the pool actually used.
	workers = dse.PoolSize(req.Objective, workers)
	w.Header().Set("X-Explore-Workers", strconv.Itoa(workers))
	e := dse.Explorer{
		Catalog:     s.cat,
		Space:       req.Space,
		Constraints: req.Constraints,
		Workers:     workers,
		Objective:   req.Objective,
	}
	// The axis selection's compiled space comes from the server's
	// table; the run attaches only its constraints and objective. A
	// space that fails to compile leaves e to compile on its own, so
	// the engine reports the error where it always has.
	cs, err := s.spaces.get(s.cat, req.Space)
	if err == nil {
		e.Compiled = cs.compiled
	}
	enc := lineEncoder{space: cs, objName: req.ObjectiveName}
	if req.Objective != nil {
		enc.cols = req.Objective.Columns()
	}

	// Selection passes need the full slate; they respond only once the
	// exploration completes (still NDJSON, one line per survivor).
	if req.TopK > 0 || len(req.Pareto) > 0 {
		cands, err := e.ExploreContext(ctx)
		if err != nil {
			s.engineError(w, ctx, err)
			return
		}
		if req.TopK > 0 {
			cands = dse.TopK(cands, req.Rank, req.TopK)
		} else {
			cands, err = dse.ParetoFront(cands, req.Pareto...)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		// The slate is complete, so the response is encoded to memory
		// first — which makes it spillable as a store artifact (a
		// repeat top-K or Pareto query then answers from disk).
		var body []byte
		for i := range cands {
			body = enc.appendLine(body, &cands[i])
		}
		// Decided before the write: a client that leaves mid-write
		// cancels ctx, but the slate it leaves behind is complete.
		persist := storeKey != "" && len(body) > 0 && ctx.Err() == nil
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body) // a write failure means the client left
		if persist {
			flushThenPersist(w, s.store, storeKey, body)
		}
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// With a store enabled, the stream tees into a bounded spill
	// buffer; only a complete, error-free stream becomes an artifact.
	var dst io.Writer = w
	var spill *spillBuffer
	if storeKey != "" {
		spill = &spillBuffer{}
		dst = teeWriter{w: w, spill: spill}
	}
	// One line buffer serves the whole stream. The zero lastFlush makes
	// the first line flush at once.
	line := make([]byte, 0, 512)
	var lastFlush time.Time
	complete := true
	for cand, err := range e.Candidates(ctx) {
		if err != nil {
			complete = false
			if errors.Is(err, context.Canceled) {
				break // disconnect: the pool has already been cancelled
			}
			// Headers are sent; the best we can do is a terminal
			// error line (ParseExplore has made these unlikely).
			line = append(line[:0], `{"error":`...)
			line = appendJSONString(line, err.Error())
			_, _ = dst.Write(append(line, '}', '\n'))
			break
		}
		line = enc.appendLine(line[:0], &cand)
		if _, err := dst.Write(line); err != nil {
			complete = false
			break // write failure: client went away
		}
		if now := time.Now(); now.Sub(lastFlush) >= exploreFlushInterval {
			_ = rc.Flush()
			lastFlush = now
		}
	}
	// Spill only a clean full stream: a torn or error-bearing body
	// must never become a servable artifact.
	if complete && spill != nil && !spill.overflow && ctx.Err() == nil && spill.buf.Len() > 0 {
		s.store.Put(storeKey, spill.buf.Bytes())
	}
}
