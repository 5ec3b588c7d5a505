package skyline

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/units"
)

// exploreLine converts a candidate into the ExploreCandidateJSON wire
// struct. Encoded with json.Encoder it is the reflection-based oracle
// lineEncoder must match byte for byte. cols and objName are the
// active objective's columns and registry name (nil/"" on plain
// explorations).
func exploreLine(c dse.Candidate, objName string, cols []dse.ObjectiveColumn) ExploreCandidateJSON {
	an := c.Analysis
	out := ExploreCandidateJSON{
		Name:      c.Name(),
		UAV:       c.Selection.UAV,
		Compute:   c.Selection.Compute,
		Algorithm: c.Selection.Algorithm,
		Sensor:    c.Selection.Sensor,
		VSafeMS:   JSONFloat(an.SafeVelocity.MetersPerSecond()),
		KneeHz:    JSONFloat(an.Knee.Throughput.Hertz()),
		PowerW:    JSONFloat(c.Power.Watts()),
		PayloadG:  JSONFloat(an.Config.Payload.Grams()),
		Bound:     an.Bound.String(),
		Class:     an.Class.String(),
	}
	// Non-finite readings stay at zero so omitempty drops them and the
	// wire format matches pre-JSONFloat output byte for byte.
	if v := an.Action.Hertz(); !math.IsInf(v, 0) && !math.IsNaN(v) {
		out.ActionHz = JSONFloat(v)
	}
	if g := an.GapFactor; !math.IsInf(g, 0) && !math.IsNaN(g) {
		out.GapFactor = JSONFloat(g)
	}
	if objName != "" && len(c.Metrics) == len(cols) {
		out.Objective = objName
		out.Metrics = make([]MetricJSON, len(cols))
		for i, col := range cols {
			out.Metrics[i] = MetricJSON{Name: col.Name, Value: JSONFloat(c.Metrics[i])}
		}
	}
	return out
}

// requireSameLine diffs a fresh lineEncoder against the json.Encoder
// oracle for one candidate.
func requireSameLine(t *testing.T, c dse.Candidate, objName string, cols []dse.ObjectiveColumn) {
	t.Helper()
	requireSameNextLine(t, &lineEncoder{objName: objName, cols: cols}, c)
}

// requireSameNextLine diffs enc's next line — encoded with whatever
// state the lines before it left behind — against the json.Encoder
// oracle.
func requireSameNextLine(t *testing.T, enc *lineEncoder, c dse.Candidate) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(exploreLine(c, enc.objName, enc.cols)); err != nil {
		t.Fatal(err)
	}
	// A non-empty prefix checks the encoder appends rather than
	// overwrites.
	got := enc.appendLine([]byte("prefix"), &c)
	if !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		t.Fatalf("%s (objective %q):\n got %s\nwant %s", c.Name(), enc.objName, got[len("prefix"):], want.Bytes())
	}
}

// encoderCase is one catalog and space the encoder tests explore.
type encoderCase struct {
	name  string
	cat   *catalog.Catalog
	space dse.Space
}

// encoderCases are the default catalog with its sensor axis — so lines
// both with and without the omitempty sensor field are compared — and
// the 2048-candidate algorithm-heavy catalog.
func encoderCases() []encoderCase {
	def := catalog.Default()
	defSpace := defaultSpace(def)
	defSpace.Sensors = append([]string{""}, def.SensorNames()...)
	heavy := catalog.SyntheticAlgoHeavy(8, 16, 16)
	return []encoderCase{
		{"default", def, defSpace},
		{"algoheavy", heavy, defaultSpace(heavy)},
	}
}

// forEachExploration enumerates every encoder case, plain and under each
// mission objective, and hands fn the slate with the objective's name
// and columns.
func forEachExploration(t *testing.T, fn func(tc encoderCase, objName string, ev dse.Evaluator, cands []dse.Candidate)) {
	t.Helper()
	for _, tc := range encoderCases() {
		for _, objName := range append([]string{""}, dse.ObjectiveNames()...) {
			var ev dse.Evaluator
			if objName != "" {
				var err error
				if ev, err = dse.NewObjective(objName, tc.cat, 1); err != nil {
					t.Fatal(err)
				}
			}
			cands, err := dse.Explorer{Catalog: tc.cat, Space: tc.space, Workers: 1, Objective: ev}.Enumerate()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, objName, err)
			}
			if len(cands) == 0 {
				t.Fatalf("%s %s: empty slate", tc.name, objName)
			}
			fn(tc, objName, ev, cands)
		}
	}
}

// columnsOf is ev's column set, nil on a plain exploration.
func columnsOf(ev dse.Evaluator) []dse.ObjectiveColumn {
	if ev == nil {
		return nil
	}
	return ev.Columns()
}

// TestAppendExploreLineMatchesEncoder diffs the production line encoder
// against json.Encoder over every candidate of two catalogs, plain and
// under each mission objective.
func TestAppendExploreLineMatchesEncoder(t *testing.T) {
	forEachExploration(t, func(_ encoderCase, objName string, ev dse.Evaluator, cands []dse.Candidate) {
		cols := columnsOf(ev)
		for _, c := range cands {
			requireSameLine(t, c, objName, cols)
		}
	})
}

// TestLineEncoderSequencesMatchEncoder runs one stateful lineEncoder
// across whole slates in the three orders the server emits or could
// emit — canonical (the stream), reversed, and the ranked top-K and
// Pareto orders of the buffered path — diffing every line against the
// json.Encoder oracle. A memoized field that failed to re-encode on a
// change would surface as a stale value on the first line after it.
func TestLineEncoderSequencesMatchEncoder(t *testing.T) {
	forEachExploration(t, func(tc encoderCase, objName string, ev dse.Evaluator, cands []dse.Candidate) {
		cols := columnsOf(ev)
		rank, pareto := dse.MaxVelocity, []dse.Objective{dse.MaxVelocity, dse.MinPower}
		if ev != nil {
			rank = dse.ColumnObjective(cols, 0)
			pareto = []dse.Objective{rank, dse.MinPower}
		}
		front, err := dse.ParetoFront(cands, pareto...)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range []struct {
			name  string
			cands []dse.Candidate
		}{
			{"canonical", cands},
			{"reversed", reversed(cands)},
			{"topk", dse.TopK(cands, rank, len(cands))},
			{"topk10", dse.TopK(cands, rank, 10)},
			{"pareto", front},
		} {
			enc := lineEncoder{objName: objName, cols: cols}
			for _, c := range order.cands {
				requireSameNextLine(t, &enc, c)
			}
			if t.Failed() {
				t.Fatalf("%s %q: %s order diverged", tc.name, objName, order.name)
			}
		}
	})
}

// reversed returns a reversed copy of cands.
func reversed(cands []dse.Candidate) []dse.Candidate {
	out := slices.Clone(cands)
	slices.Reverse(out)
	return out
}

// TestLineEncoderMemoNeighbours feeds one lineEncoder a base candidate
// alternating with hand-built neighbours that each differ from it in
// exactly one memoized field — including the values a careless memo
// confuses: +0 and -0 payloads (equal as floats, different bits and
// encodings), a NaN knee repeated (unequal as floats, same bits and
// encoding) and an empty sensor between two named ones (the omitted
// field must not reset or leak the memo), and a value too long to
// memoize.
func TestLineEncoderMemoNeighbours(t *testing.T) {
	cat := catalog.Default()
	cands, err := dse.Explorer{Catalog: cat, Space: defaultSpace(cat), Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	base := cands[0]
	negZero, nan := math.Copysign(0, -1), math.NaN()
	edits := []func(c *dse.Candidate){
		func(c *dse.Candidate) { c.Selection.UAV += " II" },
		func(c *dse.Candidate) { c.Selection.UAV = "a<b>&\"c\"" },
		// Longer than the memo's fixed buffer: encoded every time.
		func(c *dse.Candidate) { c.Selection.UAV = strings.Repeat("long airframe ", 8) },
		func(c *dse.Candidate) { c.Selection.Compute += " (binned)" },
		func(c *dse.Candidate) { c.Selection.Compute = "" },
		func(c *dse.Candidate) { c.Selection.Sensor = "lidar" },
		func(c *dse.Candidate) { c.Selection.Sensor = "sonar" },
		func(c *dse.Candidate) { c.Analysis.Knee.Throughput = units.Hertz(nan) },
		func(c *dse.Candidate) { c.Analysis.Knee.Throughput = units.Hertz(math.Inf(1)) },
		func(c *dse.Candidate) { c.Analysis.Knee.Throughput *= 2 },
		func(c *dse.Candidate) { c.Power = units.Watts(negZero) },
		func(c *dse.Candidate) { c.Power = 0 },
		func(c *dse.Candidate) { c.Power = units.Watts(1e-7) },
		func(c *dse.Candidate) { c.Analysis.Config.Payload = 0 },
		func(c *dse.Candidate) { c.Analysis.Config.Payload = units.Grams(negZero) },
		func(c *dse.Candidate) { c.Analysis.Config.Payload = units.Grams(math.MaxFloat64) },
		func(c *dse.Candidate) { c.Analysis.Bound++ },
		func(c *dse.Candidate) { c.Analysis.Bound = -1 },
		func(c *dse.Candidate) { c.Analysis.Class++ },
		func(c *dse.Candidate) { c.Analysis.Class = 99 },
	}
	enc := lineEncoder{}
	requireSameNextLine(t, &enc, base)
	for _, edit := range edits {
		n := base
		edit(&n)
		// Twice in a row (the memo hit), then back to base (the change
		// undone).
		requireSameNextLine(t, &enc, n)
		requireSameNextLine(t, &enc, n)
		requireSameNextLine(t, &enc, base)
	}
	// Edits chained without returning to base: each line differs from
	// the previous one in exactly one field.
	n := base
	for _, edit := range edits {
		edit(&n)
		requireSameNextLine(t, &enc, n)
	}
	// Zeros of both signs back to back, in every memoized float.
	for _, z := range []float64{0, negZero, negZero, 0, 0, negZero} {
		n := base
		n.Analysis.Knee.Throughput = units.Hertz(z)
		n.Power = units.Watts(z)
		n.Analysis.Config.Payload = units.Grams(z)
		requireSameNextLine(t, &enc, n)
	}
}

// TestAppendExploreLineEdgeCases covers what real catalogs rarely
// produce: names that need escaping, non-finite and zero readings,
// extreme magnitudes, non-finite metrics, and objective lines whose
// metric count does not match the columns.
func TestAppendExploreLineEdgeCases(t *testing.T) {
	cat := catalog.Default()
	cands, err := dse.Explorer{Catalog: cat, Space: defaultSpace(cat), Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	inf, nan := math.Inf(1), math.NaN()
	lineSep, paraSep := string(rune(0x2028)), string(rune(0x2029))
	cols := []dse.ObjectiveColumn{{Name: "a<b>&c"}, {Name: "line" + lineSep + "sep"}}
	for i, tc := range []struct {
		edit    func(c *dse.Candidate)
		objName string
		cols    []dse.ObjectiveColumn
	}{
		{edit: func(c *dse.Candidate) {
			c.Analysis.Config.Name = "a<b>&c \"q\" \\ \x00\x1f\x7f \xff\xfe " + lineSep + paraSep + string(rune(0xe9))
			c.Selection.UAV = "\b\f\n\r\t"
			c.Selection.Sensor = "</script>"
		}},
		{edit: func(c *dse.Candidate) {
			c.Analysis.GapFactor = inf
			c.Analysis.Action = units.Hertz(inf)
			c.Analysis.Knee.Throughput = units.Hertz(nan)
			c.Analysis.SafeVelocity = units.MetersPerSecond(-inf)
		}},
		{edit: func(c *dse.Candidate) {
			c.Analysis.GapFactor = math.Copysign(0, -1)
			c.Analysis.Action = units.Hertz(nan)
			c.Power = units.Watts(1e-7)
			c.Analysis.SafeVelocity = units.MetersPerSecond(5e-324)
			c.Analysis.Knee.Throughput = units.Hertz(1e21)
		}},
		{edit: func(c *dse.Candidate) {
			c.Analysis.GapFactor = nan
			c.Power = units.Watts(math.MaxFloat64)
			c.Analysis.SafeVelocity = units.MetersPerSecond(1e-6)
			c.Analysis.Knee.Throughput = units.Hertz(1e20)
		}},
		{edit: func(c *dse.Candidate) { c.Metrics = []float64{inf, nan} }, objName: "mission.<x>", cols: cols},
		{edit: func(c *dse.Candidate) { c.Metrics = []float64{-inf, 1e-9} }, objName: "mission.test", cols: cols},
		{edit: func(c *dse.Candidate) { c.Metrics = []float64{1} }, objName: "mission.test", cols: cols},
		{edit: func(c *dse.Candidate) { c.Metrics = nil }, objName: "mission.test", cols: []dse.ObjectiveColumn{}},
	} {
		c := cands[i%len(cands)]
		tc.edit(&c)
		requireSameLine(t, c, tc.objName, tc.cols)
	}
}

// FuzzAppendJSONString diffs appendJSONString against json.Marshal,
// invalid UTF-8 included. The seed corpus is in testdata/fuzz.
func FuzzAppendJSONString(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSONString(%q) = %s, want %s", s, got[1:], want)
		}
	})
}

// FuzzAppendJSONFloat diffs appendJSONFloat against json.Marshal on
// finite values and against null on the rest, and checks that
// JSONFloat.MarshalJSON yields the same bytes through a full
// json.Marshal (which also validates them as JSON). The seed corpus is
// in testdata/fuzz.
func FuzzAppendJSONFloat(f *testing.F) {
	f.Fuzz(func(t *testing.T, v float64) {
		want := []byte("null")
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			var err error
			if want, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		if got := appendJSONFloat([]byte("x"), v); !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSONFloat(%v) = %s, want %s", v, got[1:], want)
		}
		if got, err := json.Marshal(JSONFloat(v)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal(JSONFloat(%v)) = %s, %v; want %s", v, got, err, want)
		}
	})
}
