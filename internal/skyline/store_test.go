package skyline

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/store"
	"repro/internal/units"
)

// storedServer is one server generation over a persistent store
// directory: its own in-memory state (nothing shared with another
// generation) and a freshly opened store over the shared dir.
type storedServer struct {
	srv *httptest.Server
	s   *Server
	st  *store.Store
	// handlers counts requests whose handler has not returned. A
	// buffered miss flushes its body before it persists the artifact,
	// so a client can hold the whole response while Put still runs.
	handlers sync.WaitGroup
}

func openStoredServer(t *testing.T, dir string) *storedServer {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ss := &storedServer{s: NewServerWith(catalog.Default(), Options{Store: st}), st: st}
	ss.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ss.handlers.Add(1)
		defer ss.handlers.Done()
		ss.s.ServeHTTP(w, r)
	}))
	t.Cleanup(ss.srv.Close)
	return ss
}

// settle waits until every request the server has begun has returned
// from its handler, so the artifacts of the responses read so far are
// on disk. (A later request on the same keep-alive connection is read
// only after the previous handler returns, so fetches in sequence need
// no settle between them.)
func (ss *storedServer) settle() { ss.handlers.Wait() }

// forbidEngine arms an error at the engine's plan seam for the rest of
// the test: any request that would run an exploration or a grid sweep
// fails, so a warm generation that still answers byte-identically
// provably served every byte from the store.
func forbidEngine(t *testing.T) {
	t.Helper()
	t.Cleanup(faultinject.Enable(faultinject.SiteDSEPlan, faultinject.Fault{Err: errors.New("engine ran on a warm restart")}))
}

// fetch GETs path and returns the body plus the X-Explore-Store header
// ("" when the response came from the engine).
func fetch(t *testing.T, srv *httptest.Server, path string) (body []byte, storeHeader string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Explore-Store")
}

// smallExplore is a one-UAV space: enough candidates to be a real
// response, cheap enough to recompute several times per test.
func smallExplore(extra url.Values) string {
	q := url.Values{"uav": {catalog.UAVDJISpark}}
	for k, vs := range extra {
		q[k] = vs
	}
	return "/explore?" + q.Encode()
}

// TestStoreRestartServesByteIdentical is the tentpole acceptance test:
// a restarted server (fresh process state, reopened store)
// answers previously computed explorations byte-identically from disk
// without running the engine — proven by an error armed at the
// engine's plan seam for the whole warm generation.
func TestStoreRestartServesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		smallExplore(nil), // streaming
		smallExplore(url.Values{"top": {"3"}}),
		smallExplore(url.Values{"pareto": {"velocity,power"}}),
		smallExplore(url.Values{"objective": {"mission.endurance"}, "top": {"2"}, "seed": {"7"}}),
	}

	gen1 := openStoredServer(t, dir)
	cold := make(map[string][]byte)
	for _, p := range paths {
		body, hdr := fetch(t, gen1.srv, p)
		if hdr != "" {
			t.Fatalf("cold GET %s served from store (%q)", p, hdr)
		}
		if len(body) == 0 {
			t.Fatalf("cold GET %s: empty body", p)
		}
		cold[p] = body
	}
	gen1.settle()
	if st := gen1.st.Stats(); st.Puts != uint64(len(paths)) {
		t.Fatalf("store stats after cold pass = %+v; want %d spills", st, len(paths))
	}
	gen1.srv.Close()

	forbidEngine(t)
	gen2 := openStoredServer(t, dir)
	for _, p := range paths {
		body, hdr := fetch(t, gen2.srv, p)
		if hdr != "hit" {
			t.Errorf("warm GET %s: X-Explore-Store = %q, want \"hit\"", p, hdr)
		}
		if !bytes.Equal(body, cold[p]) {
			t.Errorf("warm GET %s: body differs from cold run (%d vs %d bytes)", p, len(body), len(cold[p]))
		}
	}
	if st := gen2.st.Stats(); st.Hits != uint64(len(paths)) || st.RecoveredArtifacts != len(paths) {
		t.Fatalf("warm store stats = %+v; want %d hits over %d recovered artifacts", st, len(paths), len(paths))
	}
}

func TestGridStoreRestart(t *testing.T) {
	dir := t.TempDir()
	path := "/grid.svg?x=payload&y=range&xlo=0&xhi=400&ylo=4&yhi=20&nx=5&ny=4"

	gen1 := openStoredServer(t, dir)
	cold, hdr := fetch(t, gen1.srv, path)
	if hdr != "" || len(cold) == 0 {
		t.Fatalf("cold grid: header %q, %d bytes", hdr, len(cold))
	}
	gen1.srv.Close()

	forbidEngine(t)
	gen2 := openStoredServer(t, dir)
	warm, hdr := fetch(t, gen2.srv, path)
	if hdr != "hit" {
		t.Errorf("warm grid: X-Explore-Store = %q, want \"hit\"", hdr)
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("warm grid SVG differs from cold (%d vs %d bytes)", len(warm), len(cold))
	}
}

// TestStoreSupersetFilter: a constraint-tightened streaming request is
// answered by filtering the stored unconstrained superset, and the
// bytes match what the engine itself produces for the constrained
// query.
func TestStoreSupersetFilter(t *testing.T) {
	// The reference: a storeless server computing the constrained
	// exploration directly. Constraint values sit away from any
	// candidate's exact reading (see the grams caveat in
	// docs/PERSISTENCE.md).
	constrained := smallExplore(url.Values{"max_power_w": {"12.5"}, "min_velocity_ms": {"0.5"}})
	plain := httptest.NewServer(NewServer(catalog.Default()))
	defer plain.Close()
	want, _ := fetch(t, plain, constrained)
	if len(want) == 0 {
		t.Fatal("constraints pruned everything; pick looser test values")
	}

	ss := openStoredServer(t, t.TempDir())
	if _, hdr := fetch(t, ss.srv, smallExplore(nil)); hdr != "" {
		t.Fatalf("superset GET unexpectedly served from store (%q)", hdr)
	}
	got, hdr := fetch(t, ss.srv, constrained)
	if hdr != "filtered" {
		t.Fatalf("constrained GET: X-Explore-Store = %q, want \"filtered\"", hdr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("filtered body differs from engine body (%d vs %d bytes)", len(got), len(want))
	}
	// The exact constrained key was never stored, so the filter path
	// must have run — and the unconstrained superset stays served too.
	if _, hdr := fetch(t, ss.srv, smallExplore(nil)); hdr != "hit" {
		t.Errorf("superset re-GET: X-Explore-Store = %q, want \"hit\"", hdr)
	}
	// Only the engine run compiled a space; the filtered and exact
	// store hits returned before the compiled-space table.
	if hits, misses := ss.s.spaces.hits.Load(), ss.s.spaces.misses.Load(); hits != 0 || misses != 1 {
		t.Errorf("compiled-space table hits/misses = %d/%d, want 0/1", hits, misses)
	}
}

// onlyArtifact returns the path of the store's single on-disk object.
func onlyArtifact(t *testing.T, st *store.Store) string {
	t.Helper()
	var found []string
	err := filepath.WalkDir(filepath.Join(st.Dir(), "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			found = append(found, path)
		}
		return err
	})
	if err != nil || len(found) != 1 {
		t.Fatalf("objects/ holds %d artifacts (err %v); want exactly 1", len(found), err)
	}
	return found[0]
}

// TestStoreCorruptionRecomputes: a bit-flipped or truncated artifact is
// quarantined — never served — and the response recomputes correctly.
func TestStoreCorruptionRecomputes(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, path string){
		"bit flip": func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x20
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncation": func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			ss := openStoredServer(t, t.TempDir())
			path := smallExplore(url.Values{"top": {"3"}})
			want, _ := fetch(t, ss.srv, path)
			ss.settle()

			corrupt(t, onlyArtifact(t, ss.st))
			got, hdr := fetch(t, ss.srv, path)
			if hdr != "" {
				t.Fatalf("corrupt artifact served from store (%q)", hdr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recomputed body differs (%d vs %d bytes)", len(got), len(want))
			}
			st := ss.st.Stats()
			if st.Quarantined != 1 {
				t.Fatalf("store stats = %+v; want 1 quarantined artifact", st)
			}
			// The recompute re-spilled a clean artifact: served again.
			if _, hdr := fetch(t, ss.srv, path); hdr != "hit" {
				t.Errorf("re-GET after recompute: X-Explore-Store = %q, want \"hit\"", hdr)
			}
		})
	}
}

// TestStoreReadFaultRecomputes: persistent read I/O errors never
// surface to the client — the response recomputes, the error counts.
func TestStoreReadFaultRecomputes(t *testing.T) {
	ss := openStoredServer(t, t.TempDir())
	path := smallExplore(url.Values{"top": {"3"}})
	want, _ := fetch(t, ss.srv, path)

	disarm := faultinject.Enable(faultinject.SiteStoreRead, faultinject.Fault{})
	got, hdr := fetch(t, ss.srv, path)
	disarm()
	if hdr != "" {
		t.Fatalf("read-faulted GET served from store (%q)", hdr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed body differs (%d vs %d bytes)", len(got), len(want))
	}
	st := ss.st.Stats()
	if st.ReadErrors == 0 || st.Quarantined != 0 {
		t.Fatalf("store stats = %+v; want read errors counted, nothing quarantined", st)
	}
	// The artifact was never corrupt: with the fault gone it serves.
	if _, hdr := fetch(t, ss.srv, path); hdr != "hit" {
		t.Errorf("GET after fault cleared: X-Explore-Store = %q, want \"hit\"", hdr)
	}
}

// TestStoreRenameFaultDegrades: persistent write failure trips the
// recompute-only degraded state — surfaced on /healthz — while every
// response stays correct.
func TestStoreRenameFaultDegrades(t *testing.T) {
	ss := openStoredServer(t, t.TempDir())
	defer faultinject.Enable(faultinject.SiteStoreRename, faultinject.Fault{})()

	path := smallExplore(url.Values{"top": {"3"}})
	var first []byte
	// Each request's spill fails; after the threshold the store trips.
	for i := 0; i < 4; i++ {
		body, hdr := fetch(t, ss.srv, path)
		if hdr != "" {
			t.Fatalf("request %d served from store (%q) under a rename fault", i, hdr)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("request %d body differs from request 0", i)
		}
	}
	st := ss.st.Stats()
	if !st.Degraded || st.DegradedTrips == 0 || st.WriteErrors == 0 {
		t.Fatalf("store stats = %+v; want degraded with write errors counted", st)
	}

	var h HealthJSON
	resp, err := http.Get(ss.srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Store == nil || !h.Store.Degraded || h.Store.WriteErrors == 0 {
		t.Fatalf("/healthz store = %+v; want degraded surfaced", h.Store)
	}
}

// TestHealthzStoreSection: the store gauges appear on /healthz exactly
// when a store is configured.
func TestHealthzStoreSection(t *testing.T) {
	decode := func(srv *httptest.Server) HealthJSON {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h HealthJSON
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := decode(newTestServer(t)); h.Store != nil {
		t.Fatalf("storeless /healthz has a store section: %+v", h.Store)
	}
	ss := openStoredServer(t, t.TempDir())
	fetch(t, ss.srv, smallExplore(url.Values{"top": {"2"}}))
	h := decode(ss.srv)
	if h.Store == nil {
		t.Fatal("/healthz missing the store section")
	}
	if h.Store.Artifacts != 1 || h.Store.Puts != 1 {
		t.Fatalf("/healthz store = %+v; want the spilled artifact visible", h.Store)
	}
}

// TestMetricsStoreSeries: the Prometheus endpoint carries the store
// series.
func TestMetricsStoreSeries(t *testing.T) {
	ss := openStoredServer(t, t.TempDir())
	path := smallExplore(url.Values{"top": {"2"}})
	fetch(t, ss.srv, path) // miss + spill
	fetch(t, ss.srv, path) // hit
	body, _ := fetch(t, ss.srv, "/metrics")
	for _, want := range []string{
		`skyline_store_lookups_total{outcome="hit"} 1`,
		`skyline_store_served_total{kind="explore"} 1`,
		"skyline_store_artifacts 1",
		"skyline_store_degraded 0",
		"skyline_store_quarantined_total 0",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Storeless servers emit no store series at all.
	plain, _ := fetch(t, newTestServer(t), "/metrics")
	if bytes.Contains(plain, []byte("skyline_store_")) {
		t.Error("storeless /metrics carries store series")
	}
}

// TestStoreKeyDiscriminates: requests that must not share bytes must
// not share keys, and key construction is deterministic.
func TestStoreKeyDiscriminates(t *testing.T) {
	cat := catalog.Default()
	base, err := ParseExplore(cat, url.Values{"uav": {catalog.UAVDJISpark}})
	if err != nil {
		t.Fatal(err)
	}
	rev := cat.Fingerprint()
	keys := map[string]string{"base": exploreStoreKey(rev, base)}
	for name, q := range map[string]url.Values{
		"space":      {"uav": {catalog.UAVAscTecPelican}},
		"constraint": {"uav": {catalog.UAVDJISpark}, "max_power_w": {"10"}},
		"top":        {"uav": {catalog.UAVDJISpark}, "top": {"3"}},
		"rank":       {"uav": {catalog.UAVDJISpark}, "top": {"3"}, "rank": {"power"}},
		"pareto":     {"uav": {catalog.UAVDJISpark}, "pareto": {"velocity,power"}},
		"objective":  {"uav": {catalog.UAVDJISpark}, "objective": {"mission.endurance"}},
		// Seed discrimination needs a Monte-Carlo evaluator: the
		// deterministic ones normalize Seed() to 0, and identical bytes
		// sharing a key is exactly right there.
		"stochastic":        {"uav": {catalog.UAVDJISpark}, "objective": {"mission.stochastic"}},
		"stochastic seed 9": {"uav": {catalog.UAVDJISpark}, "objective": {"mission.stochastic"}, "seed": {"9"}},
	} {
		req, err := ParseExplore(cat, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys[name] = exploreStoreKey(rev, req)
	}
	seen := make(map[string]string)
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("keys for %q and %q collide", name, prev)
		}
		seen[k] = name
	}
	// Deterministic: re-parsing the same query rebuilds the same key.
	again, err := ParseExplore(cat, url.Values{"uav": {catalog.UAVDJISpark}})
	if err != nil {
		t.Fatal(err)
	}
	if exploreStoreKey(rev, again) != keys["base"] {
		t.Error("identical requests built different keys")
	}
	// The superset of a constrained request is the unconstrained key.
	cons, err := ParseExplore(cat, url.Values{"uav": {catalog.UAVDJISpark}, "max_power_w": {"10"}})
	if err != nil {
		t.Fatal(err)
	}
	if supersetKey(rev, cons) != keys["base"] {
		t.Error("supersetKey of a constrained request != unconstrained key")
	}
}

// TestFilterStoredMatchesEngineAtPayloadBoundary: a candidate one
// kilogram-ulp above a max_payload_g constraint reads the constraint's
// own gram value on the wire, and the stored filter and the engine
// must decide it alike — both keep it.
func TestFilterStoredMatchesEngineAtPayloadBoundary(t *testing.T) {
	req, err := ParseExplore(catalog.Default(), url.Values{"max_payload_g": {"141"}})
	if err != nil {
		t.Fatal(err)
	}
	var cand dse.Candidate
	cand.Analysis.Config.Payload = units.Mass(math.Nextafter(0.141, 1))
	if g := cand.Analysis.Config.Payload.Grams(); g != 141 {
		t.Fatalf("fixture payload reads %v g, want 141", g)
	}
	line := []byte(`{"name":"a","v_safe_ms":2.5,"power_w":10,"payload_g":141}` + "\n")
	got, ok := filterStored(line, req.Constraints)
	if !ok {
		t.Fatal("filterStored rejected a well-formed line")
	}
	if !bytes.Equal(got, line) {
		t.Fatalf("filterStored dropped the boundary line: %q", got)
	}
	if !req.Constraints.Allows(cand) {
		t.Fatal("engine rejects a candidate whose line the stored filter keeps")
	}
}

func TestFilterStored(t *testing.T) {
	lines := []byte(`{"name":"a","v_safe_ms":2.5,"power_w":10,"payload_g":100}` + "\n" +
		`{"name":"b","v_safe_ms":0.5,"power_w":20,"payload_g":300}` + "\n" +
		`{"name":"c","v_safe_ms":null,"power_w":5,"payload_g":50}` + "\n")
	cons := dse.Constraints{MaxPower: units.Watts(15), MinVelocity: units.MetersPerSecond(1)}
	got, ok := filterStored(lines, cons)
	if !ok {
		t.Fatal("filterStored rejected well-formed lines")
	}
	// b fails both constraints; c's null v_safe decodes as +Inf (the
	// engine's unbounded marker) and passes MinVelocity like the
	// engine does.
	want := []byte(`{"name":"a","v_safe_ms":2.5,"power_w":10,"payload_g":100}` + "\n" +
		`{"name":"c","v_safe_ms":null,"power_w":5,"payload_g":50}` + "\n")
	if !bytes.Equal(got, want) {
		t.Fatalf("filterStored = %q; want %q", got, want)
	}
	if _, ok := filterStored([]byte("{\"name\":\"a\"}\nnot json\n"), cons); ok {
		t.Error("filterStored accepted a malformed line")
	}
	if _, ok := filterStored([]byte("{\"name\":\"a\"}"), cons); ok {
		t.Error("filterStored accepted a body without a trailing newline")
	}
}

// storedLine is the encoding/json decode of the three values the
// constraints read from a stored /explore line: the oracle the
// scanner behind filterStored is diffed against. JSONFloat decodes
// null back to +Inf.
type storedLine struct {
	VSafeMS  JSONFloat `json:"v_safe_ms"`
	PowerW   JSONFloat `json:"power_w"`
	PayloadG JSONFloat `json:"payload_g"`
}

// oracleFilterStored is filterStored over encoding/json: each line
// decoded into a storedLine, any decode error rejecting the body.
func oracleFilterStored(body []byte, cons dse.Constraints) ([]byte, bool) {
	var out []byte
	for rest := body; len(rest) > 0; {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, false
		}
		line := rest[:nl+1]
		rest = rest[nl+1:]
		var l storedLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, false
		}
		if cons.AllowsValues(float64(l.PayloadG), float64(l.PowerW), float64(l.VSafeMS)) {
			out = append(out, line...)
		}
	}
	return out, true
}

// requireScanMatchesOracle diffs the scanner against encoding/json on
// every newline-terminated line of body: a line the scanner accepts,
// the oracle must accept and decode to the same three values. When
// encoded is set, body is line-encoder output, which both must accept.
func requireScanMatchesOracle(t *testing.T, body []byte, encoded bool) {
	t.Helper()
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(line) == 0 || line[len(line)-1] != '\n' {
			continue
		}
		v, p, g, ok := scanStoredLine(line[:len(line)-1])
		var l storedLine
		err := json.Unmarshal(line, &l)
		switch {
		case encoded && err != nil:
			t.Fatalf("encoding/json rejects line-encoder output %q: %v", line, err)
		case encoded && !ok:
			t.Fatalf("scanStoredLine rejects line-encoder output %q", line)
		case ok && err != nil:
			t.Fatalf("scanStoredLine accepts %q, which encoding/json rejects: %v", line, err)
		case !ok:
			continue
		}
		for _, pair := range [][2]float64{{v, float64(l.VSafeMS)}, {p, float64(l.PowerW)}, {g, float64(l.PayloadG)}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("line %q: scanned %v, encoding/json decodes %v", line, pair[0], pair[1])
			}
		}
	}
}

// requireFilterMatchesOracle diffs filterStored against the oracle on
// body: whatever the scanner accepts, the oracle accepts too and keeps
// the same lines. When encoded is set, both must accept body.
func requireFilterMatchesOracle(t *testing.T, body []byte, cons dse.Constraints, encoded bool) {
	t.Helper()
	got, ok := filterStored(body, cons)
	want, wok := oracleFilterStored(body, cons)
	switch {
	case encoded && (!ok || !wok):
		t.Fatalf("line-encoder output rejected: filterStored ok=%v, encoding/json ok=%v", ok, wok)
	case ok && !wok:
		t.Fatalf("filterStored accepts a body encoding/json rejects: %q", body)
	case ok && !bytes.Equal(got, want):
		t.Fatalf("filterStored under %+v kept\n%s\nencoding/json keeps\n%s", cons, got, want)
	}
}

// encodeSlate is a stored superset: every candidate's line, in order,
// from one lineEncoder.
func encodeSlate(cs *compiledSpace, objName string, cols []dse.ObjectiveColumn, cands []dse.Candidate) []byte {
	enc := lineEncoder{space: cs, objName: objName, cols: cols}
	var body []byte
	for i := range cands {
		body = enc.appendLine(body, &cands[i])
	}
	return body
}

// TestFilterStoredMatchesOracle diffs the scanner against encoding/json
// over whole encoded supersets of the default, algorithm-heavy and
// hostile-name catalogs, plain and with metric columns, under
// constraints that keep all, some and none of the lines.
func TestFilterStoredMatchesOracle(t *testing.T) {
	conses := []dse.Constraints{
		{},
		{MinVelocity: units.MetersPerSecond(2.5)},
		{MaxPower: units.Watts(10)},
		{MaxPayload: units.Grams(150)},
		{MaxPayload: units.Grams(300), MaxPower: units.Watts(12), MinVelocity: units.MetersPerSecond(1.5)},
		{MinVelocity: units.MetersPerSecond(1e4)},
	}
	for _, tc := range encoderCases() {
		cs := mustCompileSpace(t, tc.cat, tc.space)
		for _, objName := range []string{"", "mission.thermal"} {
			var ev dse.Evaluator
			if objName != "" {
				var err error
				if ev, err = dse.NewObjective(objName, tc.cat, 1); err != nil {
					t.Fatal(err)
				}
			}
			cands, err := dse.Explorer{Catalog: tc.cat, Space: tc.space, Workers: 1, Objective: ev}.Enumerate()
			if err != nil {
				t.Fatal(err)
			}
			body := encodeSlate(cs, objName, columnsOf(ev), cands)
			requireScanMatchesOracle(t, body, true)
			for _, cons := range conses {
				requireFilterMatchesOracle(t, body, cons, true)
			}
		}
	}
}

// TestScanStoredLineRejects: lines the scanner must refuse, so the
// request recomputes. Each one is a near miss of a valid line.
func TestScanStoredLineRejects(t *testing.T) {
	const ok = `{"name":"a","v_safe_ms":2.5,"power_w":10,"payload_g":100}`
	if _, _, _, accepted := scanStoredLine([]byte(ok)); !accepted {
		t.Fatalf("scanStoredLine rejects %s", ok)
	}
	for _, line := range []string{
		``,
		`{}`,
		`{"name":"a","v_safe_ms":2.5,"power_w":10}`,                                    // payload missing
		`{"name":"a","v_safe_ms":2.5,"power_w":10,"payload_g":100,"power_w":1}`,        // repeated key
		`{"name":"a","v_safe_ms":2.5,"power_w":10,"payload_g":100} `,                   // trailing byte
		`{"name":"a","v_safe_ms":2.5,"power_w":10,"payload_g":100`,                     // unterminated
		`{"name":"a", "v_safe_ms":2.5,"power_w":10,"payload_g":100}`,                   // whitespace
		`{"name":"a","v_safe_ms":Inf,"power_w":10,"payload_g":100}`,                    // ParseFloat-only spellings
		`{"name":"a","v_safe_ms":NaN,"power_w":10,"payload_g":100}`,                    //
		`{"name":"a","v_safe_ms":0x1p-2,"power_w":10,"payload_g":100}`,                 //
		`{"name":"a","v_safe_ms":1_0,"power_w":10,"payload_g":100}`,                    //
		`{"name":"a","v_safe_ms":+1,"power_w":10,"payload_g":100}`,                     //
		`{"name":"a","v_safe_ms":01,"power_w":10,"payload_g":100}`,                     //
		`{"name":"a","v_safe_ms":1.,"power_w":10,"payload_g":100}`,                     //
		`{"name":"a","v_safe_ms":.5,"power_w":10,"payload_g":100}`,                     //
		`{"name":"a","v_safe_ms":1e,"power_w":10,"payload_g":100}`,                     //
		`{"name":"a","v_safe_ms":1e400,"power_w":10,"payload_g":100}`,                  // out of range
		`{"name":"a","v_safe_ms":"2.5","power_w":10,"payload_g":100}`,                  // string value
		`{"name":"a","v_safe_ms":true,"power_w":10,"payload_g":100}`,                   //
		`{"name":"a","V_SAFE_MS":1,"v_safe_ms":2.5,"power_w":10,"payload_g":100}`,      // case-folded alias
		`{"name":"a","v\u005fsafe_ms":1,"v_safe_ms":2.5,"power_w":10,"payload_g":100}`, // escaped alias
		`{"name":"a\x01","v_safe_ms":2.5,"power_w":10,"payload_g":100}`,                // raw control byte
		`{"name":"a\q","v_safe_ms":2.5,"power_w":10,"payload_g":100}`,                  // bad escape
		`{"name":"\u12","v_safe_ms":2.5,"power_w":10,"payload_g":100}`,                 // short \u
		`x,"v_safe_ms":2.5,"power_w":10,"payload_g":100}`,                              // not an object
		`{"name":"a,\"v_safe_ms\":2.5,\"power_w\":10,\"payload_g\":100}`,               // keys inside a string
		`{"m":[[[[[[[[[1]]]]]]]]],"v_safe_ms":2.5,"power_w":10,"payload_g":100}`,       // nested too deep
	} {
		if _, _, _, accepted := scanStoredLine([]byte(line)); accepted {
			t.Errorf("scanStoredLine accepts %s", line)
		}
	}
}

// filterCase is one encoded superset FuzzFilterStored draws from: a
// compiled space and its slate, plain or with metric columns.
type filterCase struct {
	cs      *compiledSpace
	objName string
	cols    []dse.ObjectiveColumn
	cands   []dse.Candidate
}

var filterCases struct {
	sync.Mutex
	m map[uint8]*filterCase
}

// filterCaseFor builds, once, the case the fuzz byte shape names: bits
// 0-5 pick a catalog.Synthetic space of 1-4 UAVs, computes and
// algorithms, bit 6 picks hostileCatalog with its sensor axis instead,
// and bit 7 attaches mission.thermal, whose metric columns add a
// nested array to every line.
func filterCaseFor(t *testing.T, shape uint8) *filterCase {
	if shape&0x40 != 0 {
		shape &= 0xc0
	}
	filterCases.Lock()
	defer filterCases.Unlock()
	if tc := filterCases.m[shape]; tc != nil {
		return tc
	}
	var cat *catalog.Catalog
	var space dse.Space
	if shape&0x40 != 0 {
		cat = hostileCatalog()
		space = defaultSpace(cat)
		space.Sensors = append([]string{""}, cat.SensorNames()...)
	} else {
		cat = catalog.Synthetic(1+int(shape&3), 1+int(shape>>2&3), 1+int(shape>>4&3))
		space = defaultSpace(cat)
	}
	tc := &filterCase{cs: mustCompileSpace(t, cat, space)}
	var ev dse.Evaluator
	if shape&0x80 != 0 {
		var err error
		if ev, err = dse.NewObjective("mission.thermal", cat, 1); err != nil {
			t.Fatal(err)
		}
		tc.objName, tc.cols = "mission.thermal", ev.Columns()
	}
	var err error
	if tc.cands, err = (dse.Explorer{Catalog: cat, Space: space, Workers: 1, Objective: ev}).Enumerate(); err != nil {
		t.Fatal(err)
	}
	if filterCases.m == nil {
		filterCases.m = make(map[uint8]*filterCase)
	}
	filterCases.m[shape] = tc
	return tc
}

// FuzzFilterStored diffs the stored-line scanner against the
// encoding/json oracle. The encoded half encodes up to eight
// consecutive candidates of a fuzz-drawn catalog.Synthetic or
// hostile-name slate, the first with its safe velocity, power and
// payload replaced by fuzz-drawn values (±Inf and NaN encode as
// null), and filters them under fuzz-drawn constraints: scanner and
// oracle must both accept it and keep the same lines. The raw half
// filters arbitrary bytes: the scanner must not panic, and must not
// accept what the oracle rejects. The seed corpus is in testdata/fuzz.
func FuzzFilterStored(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint8, pick uint16, vSafe, power, payload, maxPayload, maxPower, minVelocity float64, raw []byte) {
		cons := dse.Constraints{
			MaxPayload:  units.Grams(maxPayload),
			MaxPower:    units.Watts(maxPower),
			MinVelocity: units.MetersPerSecond(minVelocity),
		}
		tc := filterCaseFor(t, shape)
		start := int(pick) % len(tc.cands)
		cands := slices.Clone(tc.cands[start:min(start+8, len(tc.cands))])
		c := &cands[0]
		c.Analysis.SafeVelocity = units.MetersPerSecond(vSafe)
		c.Power = units.Watts(power)
		c.Analysis.Config.Payload = units.Grams(payload)
		body := encodeSlate(tc.cs, tc.objName, tc.cols, cands)
		requireScanMatchesOracle(t, body, true)
		requireFilterMatchesOracle(t, body, cons, true)
		requireScanMatchesOracle(t, raw, false)
		requireFilterMatchesOracle(t, raw, cons, false)
	})
}

// TestBufferedMissRespondsBeforePersist: a buffered store miss — a
// top-K /explore or a /grid.svg — hands the client its whole body
// before Put writes and fsyncs the artifact, and Put still completes
// inside the handler. A latency armed at the store.write seam stands
// in for a slow fsync.
func TestBufferedMissRespondsBeforePersist(t *testing.T) {
	const fsync = 300 * time.Millisecond
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWith(catalog.Default(), Options{Store: st})
	returned := make(chan time.Time, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeHTTP(w, r)
		returned <- time.Now()
	}))
	defer srv.Close()
	for _, path := range []string{
		smallExplore(url.Values{"top": {"3"}}),
		"/grid.svg?x=payload&y=range&xlo=0&xhi=400&ylo=4&yhi=20&nx=5&ny=4",
	} {
		disarm := faultinject.Enable(faultinject.SiteStoreWrite, faultinject.Fault{Latency: fsync, Times: 1})
		cold, hdr := fetch(t, srv, path)
		bodyAt := time.Now()
		end := <-returned
		disarm()
		if hdr != "" {
			t.Fatalf("cold GET %s served from the store (%q)", path, hdr)
		}
		if lead := end.Sub(bodyAt); lead < fsync/2 {
			t.Errorf("GET %s: the client had its body %v before the handler returned, want at least %v: the response waited for Put", path, lead, fsync/2)
		}
		warm, hdr := fetch(t, srv, path)
		<-returned
		if hdr != "hit" {
			t.Errorf("repeat GET %s: X-Explore-Store = %q, want \"hit\"", path, hdr)
		}
		if !bytes.Equal(warm, cold) {
			t.Errorf("repeat GET %s: stored body differs from the response (%d vs %d bytes)", path, len(warm), len(cold))
		}
	}
}

// BenchmarkExploreFiltered measures a constrained /explore answered
// from the store: a one-UAV superset of catalog.SyntheticAlgoHeavy(8,
// 16, 16) (256 lines, the perfbench interactive-mix shape) filtered at
// min_velocity_ms=2.5. The timed loop discards the body, so the row
// prices the server, not the client's buffering.
func BenchmarkExploreFiltered(b *testing.B) {
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	cat := catalog.SyntheticAlgoHeavy(8, 16, 16)
	srv := httptest.NewServer(NewServerWith(cat, Options{Store: st}))
	defer srv.Close()
	client := srv.Client()
	get := func(q url.Values, body io.Writer) {
		resp, err := client.Get(srv.URL + "/explore?" + q.Encode())
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(body, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, err %v", resp.StatusCode, err)
		}
		if q.Has("min_velocity_ms") && resp.Header.Get("X-Explore-Store") != "filtered" {
			b.Fatalf("X-Explore-Store = %q, want \"filtered\"", resp.Header.Get("X-Explore-Store"))
		}
	}
	uav := cat.UAVNames()[0]
	var superset, filtered bytes.Buffer
	get(url.Values{"uav": {uav}}, &superset)
	if n := bytes.Count(superset.Bytes(), []byte("\n")); n != 256 {
		b.Fatalf("superset has %d lines, want 256", n)
	}
	q := url.Values{"uav": {uav}, "min_velocity_ms": {"2.5"}}
	get(q, &filtered)
	if filtered.Len() == 0 || filtered.Len() == superset.Len() {
		b.Fatalf("min_velocity_ms=2.5 keeps %d of %d bytes; want a proper slice", filtered.Len(), superset.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(q, io.Discard)
	}
}
