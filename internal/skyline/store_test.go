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
	"testing"

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
}

func openStoredServer(t *testing.T, dir string) *storedServer {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerWith(catalog.Default(), Options{Store: st})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return &storedServer{srv: srv, s: s, st: st}
}

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
