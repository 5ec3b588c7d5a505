package skyline

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/dse"
)

// This file is the serve-from-store layer: canonical keys for the
// persistent result tier (internal/store), the tee that spills a
// completed response as an artifact, and the constraint filter that
// answers a tightened /explore from a stored superset. The key
// grammar and determinism contract are specified in
// docs/PERSISTENCE.md; docs/INVARIANTS.md states the rule the whole
// layer rests on — identical canonical keys must mean byte-identical
// responses.

// maxSpillBytes bounds how much of a streaming /explore response is
// buffered for spilling: past it the response still streams but is
// not stored (one pathological sweep must not hold the whole space
// in memory twice).
const maxSpillBytes = 8 << 20

// exploreStoreKey builds the canonical key of a parsed /explore
// request. It is derived from the resolved request — axes exactly as
// they order the output, constraints as their raw float64 values,
// the objective name and seed, and the selection pass — plus the
// catalog fingerprint, so a catalog swap invalidates by key. Workers,
// timeouts and transport knobs are excluded: they never change the
// bytes (the parallel engine's output is byte-identical to serial).
func exploreStoreKey(rev string, req ExploreRequest) string {
	var b strings.Builder
	b.WriteString("explore/v1\ncatalog=")
	b.WriteString(rev)
	list := func(name string, vs []string) {
		b.WriteByte('\n')
		b.WriteString(name)
		b.WriteByte('=')
		for i, v := range vs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(v))
		}
	}
	list("uav", req.Space.UAVs)
	list("compute", req.Space.Computes)
	list("algorithm", req.Space.Algorithms)
	list("sensor", req.Space.Sensors)
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	b.WriteString("\ncons=")
	b.WriteString(g(float64(req.Constraints.MaxPayload)))
	b.WriteByte(',')
	b.WriteString(g(float64(req.Constraints.MaxPower)))
	b.WriteByte(',')
	b.WriteString(g(float64(req.Constraints.MinVelocity)))
	if req.ObjectiveName != "" {
		b.WriteString("\nobjective=")
		b.WriteString(strconv.Quote(req.ObjectiveName))
		b.WriteString("\nseed=")
		b.WriteString(strconv.FormatInt(req.Objective.Seed(), 10))
	}
	if req.TopK > 0 {
		b.WriteString("\ntop=")
		b.WriteString(strconv.Itoa(req.TopK))
		b.WriteString("\nrank=")
		b.WriteString(strconv.Quote(req.RankName))
	}
	if len(req.ParetoNames) > 0 {
		list("pareto", req.ParetoNames)
	}
	return b.String()
}

// supersetKey is the key of the same exploration with no constraints:
// the superset whose stored NDJSON a constrained streaming request is
// a pure filter over (constraints only prune candidates; they never
// change a surviving line's bytes).
func supersetKey(rev string, req ExploreRequest) string {
	req.Constraints = dse.Constraints{}
	return exploreStoreKey(rev, req)
}

// gridStoreKey builds the canonical key of a parsed /grid.svg
// request: every knob that shapes the rendered SVG, plus the catalog
// fingerprint. Workers is excluded (the sweep is deterministic at any
// pool size).
func gridStoreKey(rev string, req GridRequest) string {
	var b strings.Builder
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	b.WriteString("grid/v1\ncatalog=")
	b.WriteString(rev)
	p := req.Params
	b.WriteString("\nparams=")
	b.WriteString(strconv.Quote(p.Mode))
	for _, s := range []string{p.UAV, p.Compute, p.Algorithm} {
		b.WriteByte(',')
		b.WriteString(strconv.Quote(s))
	}
	for _, v := range []float64{p.TDPW, p.DroneWeightG, p.RotorPullGF, p.PayloadG,
		p.SensorHz, p.SensorRangeM, p.ComputeRuntime, p.ControlHz} {
		b.WriteByte(',')
		b.WriteString(g(v))
	}
	b.WriteString("\naxes=")
	b.WriteString(strconv.Quote(req.X.String()))
	b.WriteByte(',')
	b.WriteString(strconv.Quote(req.Y.String()))
	b.WriteString("\nbounds=")
	for i, v := range []float64{req.XLo, req.XHi, req.YLo, req.YHi} {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(g(v))
	}
	b.WriteString("\nn=")
	b.WriteString(strconv.Itoa(req.NX))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(req.NY))
	if req.ObjectiveName != "" {
		b.WriteString("\nobjective=")
		b.WriteString(strconv.Quote(req.ObjectiveName))
		b.WriteString("\nseed=")
		b.WriteString(strconv.FormatInt(req.Objective.Seed(), 10))
		b.WriteString("\nmetric=")
		b.WriteString(strconv.Quote(req.Metric))
	}
	return b.String()
}

// serveStored writes a stored artifact as the complete response.
// kind labels the X-Explore-Store header: "hit" for an exact key
// match, "filtered" for a superset-derived answer.
func serveStored(w http.ResponseWriter, contentType, kind string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-Explore-Store", kind)
	_, _ = w.Write(body) // a failure means the client left
}

// spillBuffer captures a streamed response for spilling, up to a
// bound: overflow keeps streaming but forgets the copy.
type spillBuffer struct {
	buf      bytes.Buffer
	overflow bool
}

func (b *spillBuffer) Write(p []byte) (int, error) {
	if !b.overflow {
		if b.buf.Len()+len(p) > maxSpillBytes {
			b.overflow = true
			b.buf.Reset()
		} else {
			b.buf.Write(p)
		}
	}
	return len(p), nil
}

// teeWriter copies everything written to the response into the spill
// buffer. The spill side never errors; the response side's error
// propagates so the streaming loop still sees disconnects.
type teeWriter struct {
	w     io.Writer
	spill *spillBuffer
}

func (t teeWriter) Write(p []byte) (int, error) {
	_, _ = t.spill.Write(p)
	return t.w.Write(p)
}

// storedLine is the minimal decode of one stored /explore NDJSON line
// needed to re-apply constraints. The fields round-trip exactly: the
// encoder emits the shortest representation of each float64, and
// JSONFloat decodes null back to +Inf (the only non-finite these
// fields produce).
type storedLine struct {
	VSafeMS  JSONFloat `json:"v_safe_ms"`
	PowerW   JSONFloat `json:"power_w"`
	PayloadG JSONFloat `json:"payload_g"`
}

// filterStored answers a constrained streaming exploration from its
// stored unconstrained superset: every stored line that passes the
// constraints is re-emitted with its original bytes, which keeps the
// response byte-identical to an engine run (constraints are a pure
// prune over the same deterministic candidate order). A line that
// fails to decode aborts the whole attempt (ok=false) — the engine
// recomputes rather than risk serving a half-understood artifact.
func filterStored(body []byte, cons dse.Constraints) (out []byte, ok bool) {
	var buf bytes.Buffer
	rest := body
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, false // stored streams are newline-terminated
		}
		line := rest[:nl+1]
		rest = rest[nl+1:]
		var l storedLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, false
		}
		if cons.AllowsValues(float64(l.PayloadG), float64(l.PowerW), float64(l.VSafeMS)) {
			buf.Write(line)
		}
	}
	return buf.Bytes(), true
}
