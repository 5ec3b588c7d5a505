package skyline

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/units"
)

// exploreLine converts a candidate into the ExploreCandidateJSON wire
// struct. Encoded with json.Encoder it is the reflection-based oracle
// appendExploreLine must match byte for byte. cols and objName are the
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

// requireSameLine diffs appendExploreLine against the json.Encoder
// oracle for one candidate.
func requireSameLine(t *testing.T, c dse.Candidate, objName string, cols []dse.ObjectiveColumn) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(exploreLine(c, objName, cols)); err != nil {
		t.Fatal(err)
	}
	// A non-empty prefix checks the encoder appends rather than
	// overwrites.
	got := appendExploreLine([]byte("prefix"), c, objName, cols)
	if !bytes.Equal(got[len("prefix"):], want.Bytes()) {
		t.Fatalf("%s (objective %q):\n got %s\nwant %s", c.Name(), objName, got[len("prefix"):], want.Bytes())
	}
}

// TestAppendExploreLineMatchesEncoder diffs the production line encoder
// against json.Encoder over every candidate of two catalogs, plain and
// under each mission objective.
func TestAppendExploreLineMatchesEncoder(t *testing.T) {
	def := catalog.Default()
	defSpace := defaultSpace(def)
	// The default catalog also runs its sensor axis, so lines both with
	// and without the omitempty sensor field are compared.
	defSpace.Sensors = append([]string{""}, def.SensorNames()...)
	heavy := catalog.SyntheticAlgoHeavy(8, 16, 16)
	for _, tc := range []struct {
		name  string
		cat   *catalog.Catalog
		space dse.Space
	}{
		{"default", def, defSpace},
		{"algoheavy", heavy, defaultSpace(heavy)},
	} {
		for _, objName := range append([]string{""}, dse.ObjectiveNames()...) {
			var ev dse.Evaluator
			var cols []dse.ObjectiveColumn
			if objName != "" {
				var err error
				if ev, err = dse.NewObjective(objName, tc.cat, 1); err != nil {
					t.Fatal(err)
				}
				cols = ev.Columns()
			}
			cands, err := dse.Explorer{Catalog: tc.cat, Space: tc.space, Workers: 1, Objective: ev}.Enumerate()
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, objName, err)
			}
			if len(cands) == 0 {
				t.Fatalf("%s %s: empty slate", tc.name, objName)
			}
			for _, c := range cands {
				requireSameLine(t, c, objName, cols)
			}
		}
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
