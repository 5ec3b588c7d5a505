package skyline

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/dse"
	"repro/internal/store"
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
	// Appended into one buffer: a default axis selection quotes every
	// compute and algorithm name, and a filtered request builds two
	// keys, so per-name strings would be most of its allocations.
	b := make([]byte, 0, 512)
	b = append(b, "explore/v1\ncatalog="...)
	b = append(b, rev...)
	list := func(name string, vs []string) {
		b = append(b, '\n')
		b = append(b, name...)
		b = append(b, '=')
		for i, v := range vs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, v)
		}
	}
	list("uav", req.Space.UAVs)
	list("compute", req.Space.Computes)
	list("algorithm", req.Space.Algorithms)
	list("sensor", req.Space.Sensors)
	b = append(b, "\ncons="...)
	b = strconv.AppendFloat(b, float64(req.Constraints.MaxPayload), 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, float64(req.Constraints.MaxPower), 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, float64(req.Constraints.MinVelocity), 'g', -1, 64)
	if req.ObjectiveName != "" {
		b = append(b, "\nobjective="...)
		b = strconv.AppendQuote(b, req.ObjectiveName)
		b = append(b, "\nseed="...)
		b = strconv.AppendInt(b, req.Objective.Seed(), 10)
	}
	if req.TopK > 0 {
		b = append(b, "\ntop="...)
		b = strconv.AppendInt(b, int64(req.TopK), 10)
		b = append(b, "\nrank="...)
		b = strconv.AppendQuote(b, req.RankName)
	}
	if len(req.ParetoNames) > 0 {
		list("pareto", req.ParetoNames)
	}
	return string(b)
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

// flushThenPersist stores a buffered response that has already been
// written to w in full: it flushes the body to the client first, so
// the client holds its last byte while Put writes, fsyncs and renames
// the artifact. Put still runs inside the handler, so a caller that
// serves in process finds the artifact once the handler returns.
func flushThenPersist(w http.ResponseWriter, st *store.Store, key string, body []byte) {
	_ = http.NewResponseController(w).Flush() // a failure means the client left; the artifact is still good
	st.Put(key, body)
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

// filterStored answers a constrained streaming exploration from its
// stored unconstrained superset: every stored line that passes the
// constraints is re-emitted with its original bytes, which keeps the
// response byte-identical to an engine run (constraints are a pure
// prune over the same deterministic candidate order). A line that
// fails to scan aborts the whole attempt (ok=false) — the engine
// recomputes rather than risk serving a half-understood artifact.
func filterStored(body []byte, cons dse.Constraints) (out []byte, ok bool) {
	out = make([]byte, 0, len(body))
	for rest := body; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, false // stored streams are newline-terminated
		}
		line := rest[:nl+1]
		rest = rest[nl+1:]
		vSafe, power, payload, ok := scanStoredLine(line[:nl])
		if !ok {
			return nil, false
		}
		if cons.AllowsValues(payload, power, vSafe) {
			out = append(out, line...)
		}
	}
	return out, true
}

// maxStoredDepth bounds how deeply the values of a stored line may
// nest. The line encoder nests two levels (the metrics array of
// objects); anything deeper is not its output.
const maxStoredDepth = 8

// scanStoredLine reads the three values the constraints need — safe
// velocity, compute power and payload — from one stored /explore line
// (without its newline), walking the line once instead of decoding it
// with encoding/json. It accepts only a JSON object written without
// whitespace whose top-level keys hold nothing but lower-case ASCII
// letters, digits and '_' (every key lineEncoder.appendLine writes),
// in which "v_safe_ms", "power_w" and "payload_g" each appear exactly
// once with a JSON number or null as value. null reads as +Inf, the
// value JSONFloat decodes it to. The other values are checked against
// the JSON grammar and skipped.
//
// Whatever it accepts, encoding/json accepts too and decodes to the
// same three values (store_test.go's storedLine is that oracle, and
// FuzzFilterStored diffs the two): a key is recognized only at a key
// position of the top-level object, a key cannot be an escaped or
// case-folded alias of one of the three, and a number is parsed by the
// same strconv.ParseFloat after a JSON-number syntax check. A missing,
// repeated or non-numeric value is a rejection, not a guess.
//
//reprolint:hotpath
func scanStoredLine(line []byte) (vSafe, power, payload float64, ok bool) {
	s := lineScanner{b: line}
	if !s.lit('{') {
		return 0, 0, 0, false
	}
	var seen uint8
	for {
		key, kok := s.key()
		if !kok {
			return 0, 0, 0, false
		}
		var dst *float64
		var bit uint8
		switch string(key) {
		case "v_safe_ms":
			dst, bit = &vSafe, 1
		case "power_w":
			dst, bit = &power, 2
		case "payload_g":
			dst, bit = &payload, 4
		}
		if dst == nil {
			if !s.value(maxStoredDepth) {
				return 0, 0, 0, false
			}
		} else if seen&bit != 0 || !s.float(dst) {
			return 0, 0, 0, false
		} else {
			seen |= bit
		}
		if s.lit('}') {
			break
		}
		if !s.lit(',') {
			return 0, 0, 0, false
		}
	}
	return vSafe, power, payload, seen == 7 && s.i == len(line)
}

// lineScanner is a cursor over one stored line. Each method consumes
// one token at the cursor and reports whether it was there; on false
// the line is rejected, so no method needs to restore the cursor.
type lineScanner struct {
	b []byte
	i int
}

// lit consumes the byte c.
func (s *lineScanner) lit(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// word consumes the literal w (true, false or null).
func (s *lineScanner) word(w string) bool {
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// key consumes a top-level key and its colon, returning the key's
// bytes. Only [a-z0-9_]+ is a key here: no escape and no upper-case or
// non-ASCII letter, so no key can decode or case-fold to another.
func (s *lineScanner) key() ([]byte, bool) {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '"' {
		return nil, false
	}
	start := i + 1
	for i = start; i < len(b); i++ {
		if c := b[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			break
		}
	}
	if i == start || len(b)-i < 2 || b[i] != '"' || b[i+1] != ':' {
		return nil, false
	}
	s.i = i + 2
	return b[start:i], true
}

// float consumes a JSON number or null into *dst.
func (s *lineScanner) float(dst *float64) bool {
	if s.word("null") {
		*dst = math.Inf(1)
		return true
	}
	start := s.i
	if !s.number() {
		return false
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		return false // out of float64 range, as encoding/json rejects it
	}
	*dst = v
	return true
}

// number consumes one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. strconv.ParseFloat
// alone would also take Inf, NaN, hex floats and underscores.
func (s *lineScanner) number() bool {
	s.lit('-')
	if s.lit('0') {
		// A leading zero stands alone.
	} else if !s.digits() {
		return false
	}
	if s.lit('.') && !s.digits() {
		return false
	}
	if s.lit('e') || s.lit('E') {
		if !s.lit('+') {
			s.lit('-')
		}
		if !s.digits() {
			return false
		}
	}
	return true
}

// digits consumes one or more decimal digits.
func (s *lineScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// str consumes one JSON string: no raw control byte, and only the
// escapes JSON defines. Other bytes, invalid UTF-8 included, pass, as
// they do through encoding/json.
func (s *lineScanner) str() bool {
	b, i := s.b, s.i
	if i >= len(b) || b[i] != '"' {
		return false
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if i++; i >= len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return false
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// value consumes one JSON value of at most depth nested levels.
func (s *lineScanner) value(depth int) bool {
	if s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '"':
		return s.str()
	case 't':
		return s.word("true")
	case 'f':
		return s.word("false")
	case 'n':
		return s.word("null")
	case '[':
		s.i++
		if depth == 0 {
			return false
		}
		if s.lit(']') {
			return true
		}
		for {
			if !s.value(depth - 1) {
				return false
			}
			if s.lit(']') {
				return true
			}
			if !s.lit(',') {
				return false
			}
		}
	case '{':
		s.i++
		if depth == 0 {
			return false
		}
		if s.lit('}') {
			return true
		}
		for {
			if !s.str() || !s.lit(':') || !s.value(depth-1) {
				return false
			}
			if s.lit('}') {
				return true
			}
			if !s.lit(',') {
				return false
			}
		}
	}
	return s.number()
}
