package skyline

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// requireSameLine diffs a fresh lineEncoder over cs against the
// json.Encoder oracle for one candidate.
func requireSameLine(t *testing.T, cs *compiledSpace, c dse.Candidate, objName string, cols []dse.ObjectiveColumn) {
	t.Helper()
	requireSameNextLine(t, &lineEncoder{space: cs, objName: objName, cols: cols}, c)
}

// mustCompileSpace builds the server's compiled-space entry for space.
func mustCompileSpace(t testing.TB, cat *catalog.Catalog, space dse.Space) *compiledSpace {
	t.Helper()
	cs, err := newCompiledSpace(cat, space)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// Hostile names for hostileCatalog: between them the UAV, compute,
// algorithm and sensor axes need every escape class appendJSONString
// implements — the quote, backslash and HTML-sensitive bytes, control
// bytes (named and \u00XX), U+2028/U+2029, invalid UTF-8 — plus plain
// non-ASCII text and names longer than the 64-byte memo buffer.
var (
	hostileUAVs = []string{
		`a<b>&"c" \ frame`,
		"ctl \b\f\n\r\t \x00\x1f\x7f frame",
		strings.Repeat("long airframe é;", 6),
	}
	hostileComputes = []string{
		"soc \u2028 line \u2029 para",
		"bad \xff\xfe utf8 soc",
		"</script><soc>",
	}
	hostileAlgorithms = []string{
		`net "quoted" \path\`,
		"ünïcødé ✈ net",
		strings.Repeat("<deep>&", 12),
	}
	hostileSensors = []string{
		"cam \x00\x1f \u2028 x",
		strings.Repeat("\xffsensor>", 10),
		`plain & "cam"`,
	}
)

// hostileCatalog is catalog.Synthetic(3, 3, 3) with every component
// renamed to a hostile name, so names that need escaping reach the
// encoder the way production names do: through the compiled space's
// prefix table and the engine's Selection, not by editing a built
// candidate.
func hostileCatalog() *catalog.Catalog {
	base := catalog.Synthetic(3, 3, 3)
	cat := catalog.New()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	sensors := make([]catalog.Sensor, len(hostileSensors))
	for i, name := range hostileSensors {
		s, err := base.Sensor(fmt.Sprintf("synth-cam-%03d", i))
		must(err)
		s.Name = name
		cat.AddSensor(s)
		sensors[i] = s
	}
	for i, name := range hostileUAVs {
		u, err := base.UAV(fmt.Sprintf("synth-uav-%03d", i))
		must(err)
		u.Name, u.Frame.Name, u.DefaultSensor = name, name, sensors[i]
		cat.AddUAV(u)
	}
	for i, name := range hostileComputes {
		c, err := base.Compute(fmt.Sprintf("synth-soc-%03d", i))
		must(err)
		c.Name = name
		cat.AddCompute(c)
	}
	for a, algo := range hostileAlgorithms {
		al, err := base.Algorithm(fmt.Sprintf("synth-net-%03d", a))
		must(err)
		al.Name = algo
		cat.AddAlgorithm(al)
		for p, comp := range hostileComputes {
			r, err := base.Perf(fmt.Sprintf("synth-net-%03d", a), fmt.Sprintf("synth-soc-%03d", p))
			must(err)
			cat.SetPerf(algo, comp, r)
		}
	}
	return cat
}

// TestHostileCatalogIsValid pins that catalog validation accepts every
// hostile name class, so each one can reach the encoder.
func TestHostileCatalogIsValid(t *testing.T) {
	if err := hostileCatalog().Check(); err != nil {
		t.Fatal(err)
	}
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
// both with and without the omitempty sensor field are compared — the
// 2048-candidate algorithm-heavy catalog, and the hostile-name catalog
// with its sensor axis.
func encoderCases() []encoderCase {
	def := catalog.Default()
	defSpace := defaultSpace(def)
	defSpace.Sensors = append([]string{""}, def.SensorNames()...)
	heavy := catalog.SyntheticAlgoHeavy(8, 16, 16)
	hostile := hostileCatalog()
	hostileSpace := defaultSpace(hostile)
	hostileSpace.Sensors = append([]string{""}, hostile.SensorNames()...)
	return []encoderCase{
		{"default", def, defSpace},
		{"algoheavy", heavy, defaultSpace(heavy)},
		{"hostile", hostile, hostileSpace},
	}
}

// forEachExploration enumerates every encoder case, plain and under each
// mission objective, and hands fn the case's compiled space and the
// slate, with the objective's name and columns. The slate comes from an
// uncompiled engine run, so the encoder's prefix table and the
// candidates it encodes are built independently.
func forEachExploration(t *testing.T, fn func(tc encoderCase, cs *compiledSpace, objName string, ev dse.Evaluator, cands []dse.Candidate)) {
	t.Helper()
	for _, tc := range encoderCases() {
		cs := mustCompileSpace(t, tc.cat, tc.space)
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
			fn(tc, cs, objName, ev, cands)
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
// against json.Encoder over every candidate of three catalogs, plain and
// under each mission objective.
func TestAppendExploreLineMatchesEncoder(t *testing.T) {
	forEachExploration(t, func(_ encoderCase, cs *compiledSpace, objName string, ev dse.Evaluator, cands []dse.Candidate) {
		cols := columnsOf(ev)
		for _, c := range cands {
			requireSameLine(t, cs, c, objName, cols)
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
	forEachExploration(t, func(tc encoderCase, cs *compiledSpace, objName string, ev dse.Evaluator, cands []dse.Candidate) {
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
			enc := lineEncoder{space: cs, objName: objName, cols: cols}
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
// memoize. The axis names before the sensor come from the compiled
// space's prefix table, not from the candidate, so editing them here
// would not reach the encoder; hostileCatalog covers them instead.
func TestLineEncoderMemoNeighbours(t *testing.T) {
	cat := catalog.Default()
	cands, err := dse.Explorer{Catalog: cat, Space: defaultSpace(cat), Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	base := cands[0]
	negZero, nan := math.Copysign(0, -1), math.NaN()
	edits := []func(c *dse.Candidate){
		func(c *dse.Candidate) { c.Selection.Sensor = "lidar" },
		func(c *dse.Candidate) { c.Selection.Sensor = "sonar" },
		// Longer than the memo's fixed buffer: encoded every time.
		func(c *dse.Candidate) { c.Selection.Sensor = strings.Repeat("long sensor ", 8) },
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
	enc := lineEncoder{space: mustCompileSpace(t, cat, defaultSpace(cat))}
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
// produce: a sensor name and objective names that need escaping,
// non-finite and zero readings, extreme magnitudes, non-finite metrics,
// and objective lines whose metric count does not match the columns.
// Axis names that need escaping come from hostileCatalog, through the
// prefix table.
func TestAppendExploreLineEdgeCases(t *testing.T) {
	cat := catalog.Default()
	cands, err := dse.Explorer{Catalog: cat, Space: defaultSpace(cat), Workers: 1}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	cs := mustCompileSpace(t, cat, defaultSpace(cat))
	inf, nan := math.Inf(1), math.NaN()
	lineSep, paraSep := string(rune(0x2028)), string(rune(0x2029))
	cols := []dse.ObjectiveColumn{{Name: "a<b>&c"}, {Name: "line" + lineSep + "sep"}}
	for i, tc := range []struct {
		edit    func(c *dse.Candidate)
		objName string
		cols    []dse.ObjectiveColumn
	}{
		{edit: func(c *dse.Candidate) { c.Selection.Sensor = "</script> \b\f\n\r\t \xff" + paraSep }},
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
		requireSameLine(t, cs, c, tc.objName, tc.cols)
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
