package skyline

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/faultinject"
)

// oracleBody is the /explore response for query, built without the
// server's compiled-space table: the query is parsed, explored by a
// fresh, uncompiled serial dse.Explorer, put through the request's
// selection pass, and every line is encoded by json.Encoder from the
// exploreLine wire struct.
func oracleBody(t testing.TB, cat *catalog.Catalog, query string) []byte {
	t.Helper()
	q, err := url.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	req, err := ParseExplore(cat, q)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	cands, err := dse.Explorer{Catalog: cat, Space: req.Space, Constraints: req.Constraints, Objective: req.Objective, Workers: 1}.Enumerate()
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	switch {
	case req.TopK > 0:
		cands = dse.TopK(cands, req.Rank, req.TopK)
	case len(req.Pareto) > 0:
		if cands, err = dse.ParetoFront(cands, req.Pareto...); err != nil {
			t.Fatalf("%s: %v", query, err)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, c := range cands {
		if err := enc.Encode(exploreLine(c, req.ObjectiveName, columnsOf(req.Objective))); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// serveExplore runs one /explore request through s's handler and
// returns the status and body.
func serveExplore(s *Server, query string) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/explore?"+query, nil))
	return rec.Code, rec.Body.Bytes()
}

// newEngineServer is a server without a persistent store, so every
// /explore request runs the engine.
func newEngineServer(cat *catalog.Catalog) *Server {
	return NewServer(cat)
}

// axisQuery renders repeated key=value pairs, one per name, so names
// containing commas are passed whole.
func axisQuery(key string, names []string) string {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = key + "=" + url.QueryEscape(n)
	}
	return strings.Join(parts, "&")
}

// oracleQueries are the /explore requests the compiled-space tests
// diff against the oracle: the default space, a per-UAV slice with a
// sensor comparison, every axis reversed, a constrained stream, every
// mission objective, and the top-K and Pareto selection passes.
func oracleQueries(cat *catalog.Catalog) []string {
	sensor := ""
	for _, s := range cat.SensorNames() {
		if !strings.Contains(s, ",") {
			sensor = s
			break
		}
	}
	rev := func(names []string) []string { names = slices.Clone(names); slices.Reverse(names); return names }
	qs := []string{
		"",
		"uav=" + url.QueryEscape(cat.UAVNames()[0]) + "&sensor=default," + url.QueryEscape(sensor),
		axisQuery("uav", rev(cat.UAVNames())) + "&" + axisQuery("compute", rev(cat.ComputeNames())) + "&" + axisQuery("algorithm", rev(cat.AlgorithmNames())),
		"max_power_w=10&min_velocity_ms=2",
		"top=5&rank=power",
		"top=10",
		"pareto=velocity,power",
		"pareto=velocity,payload,balance&sensor=default," + url.QueryEscape(sensor),
	}
	for _, name := range dse.ObjectiveNames() {
		qs = append(qs, "objective="+name, "objective="+name+"&seed=7&top=3&max_payload_g=400")
	}
	return qs
}

// TestExploreCompiledSpaceMatchesOracle fetches each oracle query twice
// from a fresh server — cold, when the request compiles its space, and
// warm, when it finds the space in the table — and diffs both bodies
// against the table-free oracle, over the default catalog and the
// hostile-name catalog. A last pass sends every query to one shared
// server, so selections that differ only in order or in the sensor
// axis must not collide in the table.
func TestExploreCompiledSpaceMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
	}{{"default", catalog.Default()}, {"hostile", hostileCatalog()}} {
		queries := oracleQueries(tc.cat)
		want := make([][]byte, len(queries))
		for qi, q := range queries {
			want[qi] = oracleBody(t, tc.cat, q)
			if len(want[qi]) == 0 {
				t.Fatalf("%s %q: empty oracle body", tc.name, q)
			}
			s := newEngineServer(tc.cat)
			for i, phase := range []string{"cold", "warm"} {
				code, got := serveExplore(s, q)
				if code != http.StatusOK {
					t.Fatalf("%s %q %s: status %d: %s", tc.name, q, phase, code, got)
				}
				if !bytes.Equal(got, want[qi]) {
					t.Fatalf("%s %q %s: body differs from the oracle\n got %.300s\nwant %.300s", tc.name, q, phase, got, want[qi])
				}
				if hits, misses := s.spaces.hits.Load(), s.spaces.misses.Load(); hits != uint64(i) || misses != 1 {
					t.Fatalf("%s %q %s: table hits/misses = %d/%d, want %d/1", tc.name, q, phase, hits, misses, i)
				}
			}
		}
		shared := newEngineServer(tc.cat)
		for range 2 {
			for qi, q := range queries {
				if code, got := serveExplore(shared, q); code != http.StatusOK || !bytes.Equal(got, want[qi]) {
					t.Fatalf("%s %q on a shared server: status %d, body differs from the oracle", tc.name, q, code)
				}
			}
		}
	}
}

// TestExploreCompiledSpacesConcurrent sends mixed requests from many
// goroutines at one server. The requests share compiled spaces and vary
// constraints, objective, selection and workers — mission.stochastic
// with workers=2 runs on the pool — and every body must equal its
// serial oracle. Run under -race it also checks that sharing a compiled
// space across requests needs no synchronisation.
func TestExploreCompiledSpacesConcurrent(t *testing.T) {
	cat := catalog.Default()
	uav := url.QueryEscape(cat.UAVNames()[0])
	queries := []string{
		"",
		"workers=2",
		"max_power_w=10",
		"min_velocity_ms=3&workers=1",
		"objective=mission.stochastic&workers=2",
		"objective=mission.stochastic&seed=3&top=5&workers=2",
		"objective=mission.thermal&top=5",
		"objective=mission.endurance&pareto=mission_time_s,velocity",
		"pareto=velocity,power",
		"uav=" + uav,
		"uav=" + uav + "&objective=mission.battery&workers=2",
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		want[i] = oracleBody(t, cat, q)
	}
	s := newEngineServer(cat)
	srv := httptest.NewServer(s)
	defer srv.Close()
	const goroutines, rounds = 8, 2
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds * len(queries) {
				i := (g + r) % len(queries)
				resp, err := http.Get(srv.URL + "/explore?" + queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%q: status %d, err %v", queries[i], resp.StatusCode, err)
					return
				}
				if !bytes.Equal(body, want[i]) {
					t.Errorf("%q: concurrent body differs from its serial oracle", queries[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	// Two axis selections: the whole catalog and the one-UAV slice.
	if n := s.spaces.len(); n != 2 {
		t.Fatalf("table holds %d compiled spaces, want 2", n)
	}
}

// TestCompiledSpaceTableIsBounded requests more distinct axis
// selections than the table holds. The table must stay within its
// bound, and a selection repeated after its entry was evicted must be
// compiled again and return the same bytes.
func TestCompiledSpaceTableIsBounded(t *testing.T) {
	const n = compiledSpaceCap + 4
	cat := catalog.Synthetic(n, 2, 2)
	s := newEngineServer(cat)
	query := func(i int) string { return fmt.Sprintf("uav=synth-uav-%03d", i) }
	first := make([][]byte, n)
	for i := range n {
		code, body := serveExplore(s, query(i))
		if code != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: status %d, %d bytes", query(i), code, len(body))
		}
		first[i] = bytes.Clone(body)
		if got := s.spaces.len(); got > compiledSpaceCap {
			t.Fatalf("after %d selections the table holds %d spaces, bound %d", i+1, got, compiledSpaceCap)
		}
	}
	if got := s.spaces.len(); got != compiledSpaceCap {
		t.Fatalf("table holds %d spaces, want it full at %d", got, compiledSpaceCap)
	}
	// Selection 0 is the least recently used: it was evicted first.
	misses := s.spaces.misses.Load()
	code, body := serveExplore(s, query(0))
	if code != http.StatusOK || !bytes.Equal(body, first[0]) {
		t.Fatalf("%s after eviction: status %d, body changed", query(0), code)
	}
	if !bytes.Equal(body, oracleBody(t, cat, query(0))) {
		t.Fatalf("%s after eviction: body differs from the oracle", query(0))
	}
	if got := s.spaces.misses.Load(); got != misses+1 {
		t.Fatalf("misses %d -> %d: the evicted selection was not compiled again", misses, got)
	}
	// The most recent selection is still resident.
	hits := s.spaces.hits.Load()
	if _, body := serveExplore(s, query(n-1)); !bytes.Equal(body, first[n-1]) || s.spaces.hits.Load() != hits+1 {
		t.Fatalf("%s: want a table hit with unchanged bytes", query(n-1))
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, series := range []string{
		fmt.Sprintf("skyline_compiled_spaces %d\n", compiledSpaceCap),
		fmt.Sprintf("skyline_compiled_space_hits_total %d\n", hits+1),
		fmt.Sprintf("skyline_compiled_space_misses_total %d\n", misses+1),
	} {
		if !strings.Contains(rec.Body.String(), series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}

// TestCompiledSpaceKeepsPlanFaultSite arms the dse.plan fault after the
// table is warm: a repeated top-K request must still fail the way an
// engine-plan failure always has (engineError's 400 with the injected
// error in the body), which shows the site fires once per engine run,
// not once per compile.
func TestCompiledSpaceKeepsPlanFaultSite(t *testing.T) {
	s := newEngineServer(catalog.Default())
	code, want := serveExplore(s, "top=10")
	if code != http.StatusOK {
		t.Fatalf("warm-up: status %d", code)
	}
	disarm := faultinject.Enable(faultinject.SiteDSEPlan, faultinject.Fault{Err: errors.New("injected plan fault")})
	code, body := serveExplore(s, "top=10")
	disarm()
	if code != http.StatusBadRequest || !strings.Contains(string(body), "injected plan fault") {
		t.Fatalf("armed dse.plan on a warm table: status %d body %q, want 400 with the injected error", code, body)
	}
	if hits := s.spaces.hits.Load(); hits != 1 {
		t.Fatalf("table hits = %d, want 1 (the failing request found its space compiled)", hits)
	}
	if code, body := serveExplore(s, "top=10"); code != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("after disarm: status %d, body changed", code)
	}
}

// BenchmarkCompile prices one miss of the compiled-space table —
// dse.Compile plus the prefix encoding — over the 2048-candidate
// catalog.SyntheticAlgoHeavy(8, 16, 16) space of the perfbench
// explore-stream workload: the per-cell work a warm /explore no longer
// does.
func BenchmarkCompile(b *testing.B) {
	cat := catalog.SyntheticAlgoHeavy(8, 16, 16)
	space := defaultSpace(cat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs, err := newCompiledSpace(cat, space)
		if err != nil {
			b.Fatal(err)
		}
		if cs.compiled.Len() != 2048 {
			b.Fatalf("compiled %d candidates", cs.compiled.Len())
		}
	}
}
