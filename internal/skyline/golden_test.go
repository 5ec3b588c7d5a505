package skyline

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current server")

// goldenPath is the committed response corpus: one line per request,
// "sha256  length  URL", where the hash and length are of the 200
// response body. The URL's host names the catalog the request is
// served over (see goldenServers).
const goldenPath = "testdata/golden.txt"

// goldenServers builds one in-process server per corpus host. The
// "store" and "hostile-store" hosts serve the default and hostile
// catalogs over a fresh persistent store each.
func goldenServers(t *testing.T) map[string]http.Handler {
	stored := func(cat *catalog.Catalog) http.Handler {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return NewServerWith(cat, Options{Store: st})
	}
	return map[string]http.Handler{
		"default":       NewServer(nil),
		"hostile":       NewServer(hostileCatalog()),
		"store":         stored(catalog.Default()),
		"hostile-store": stored(hostileCatalog()),
	}
}

// goldenStoreTwins maps each store-backed corpus host to the storeless
// host over the same catalog.
var goldenStoreTwins = map[string]string{"store": "default", "hostile-store": "hostile"}

// isFilteredSlice reports whether a store-host corpus URL is a
// constrained slice, which the store answers by filtering its stored
// superset.
func isFilteredSlice(q url.Values) bool {
	return q.Has("min_velocity_ms") || q.Has("max_power_w") || q.Has("max_payload_g")
}

// goldenQuery encodes key/value pairs in order; url.Values.Encode sorts the
// keys, so every corpus URL has one spelling.
func goldenQuery(kv ...string) string {
	q := url.Values{}
	for i := 0; i < len(kv); i += 2 {
		q.Add(kv[i], kv[i+1])
	}
	return q.Encode()
}

// goldenURLs lists the corpus requests. Each must answer 200. More
// endpoints or catalogs join by appending URLs (and, for a new host,
// a server in goldenServers), then running -update.
func goldenURLs() []string {
	preset := goldenQuery("mode", "preset", "uav", catalog.UAVDJISpark,
		"compute", catalog.ComputeRasPi4, "algorithm", catalog.AlgoTrailNet)
	tdp := goldenQuery("mode", "preset", "uav", catalog.UAVAscTecPelican,
		"compute", catalog.ComputeAGX, "algorithm", catalog.AlgoDroNet, "tdp_w", "5")
	custom := goldenQuery("mode", "custom", "drone_weight_g", "1000", "rotor_pull_gf", "650",
		"payload_g", "200", "sensor_hz", "60", "sensor_range_m", "4.5",
		"compute_runtime_s", "0.0056", "tdp_w", "15")
	// Infinite sensor, compute and control rates: an over-provisioned
	// design whose gap factor and action rate encode as JSON null.
	inf := goldenQuery("mode", "custom", "drone_weight_g", "1000", "rotor_pull_gf", "650",
		"sensor_hz", "Inf", "sensor_range_m", "4.5", "compute_runtime_s", "1e-323", "control_hz", "Inf")
	badUAV := goldenQuery("mode", "preset", "uav", "bogus")
	compare := goldenQuery(
		"config", catalog.UAVAscTecPelican+"|"+catalog.ComputeTX2+"|"+catalog.AlgoDroNet,
		"config", catalog.UAVAscTecPelican+"|"+catalog.ComputeRasPi4+"|"+catalog.AlgoDroNet,
		"config", catalog.UAVDJISpark+"|"+catalog.ComputeRasPi4+"|"+catalog.AlgoCAD2RL+"|tdp=10")

	hostile := func(i int) string {
		return goldenQuery("uav", hostileUAVs[i], "compute", hostileComputes[i], "algorithm", hostileAlgorithms[i])
	}
	var hostileCompare []string
	for i := range hostileUAVs {
		hostileCompare = append(hostileCompare, "config",
			hostileUAVs[i]+"|"+hostileComputes[(i+1)%3]+"|"+hostileAlgorithms[(i+2)%3])
	}
	hostileCmp := goldenQuery(hostileCompare...)

	urls := []string{
		"http://default/",
		"http://default/?" + preset,
		"http://default/?" + tdp,
		"http://default/?" + custom,
		"http://default/?" + inf,
		"http://default/?" + badUAV,
		"http://default/?mode=custom",
		"http://default/plot.svg",
		"http://default/plot.svg?" + preset,
		"http://default/plot.svg?" + tdp,
		"http://default/plot.svg?" + custom,
		"http://default/plot.svg?" + inf,
		"http://default/api/analyze",
		"http://default/api/analyze?" + preset,
		"http://default/api/analyze?" + tdp,
		"http://default/api/analyze?" + custom,
		"http://default/api/analyze?" + inf,
		"http://default/compare.svg?" + compare,
		"http://default/api/compare?" + compare,
		"http://hostile/",
		"http://hostile/compare.svg?" + hostileCmp,
		"http://hostile/api/compare?" + hostileCmp,
	}
	for i := range hostileUAVs {
		urls = append(urls,
			"http://hostile/?"+hostile(i),
			"http://hostile/plot.svg?"+hostile(i),
			"http://hostile/api/analyze?"+hostile(i))
	}

	// Filtered store answers: a per-UAV superset stream, stored by its
	// own (first) request, then constrained slices of it, each of which
	// the store answers by filtering the superset. The last slice of
	// each keeps no line. The hostile superset carries the sensor axis,
	// so escaped names reach the filter in every field.
	entry := func(host string, superset []string, cons ...[]string) {
		urls = append(urls, "http://"+host+"/explore?"+goldenQuery(superset...))
		for _, c := range cons {
			urls = append(urls, "http://"+host+"/explore?"+goldenQuery(append(slices.Clone(superset), c...)...))
		}
	}
	entry("store", []string{"uav", catalog.UAVAscTecPelican},
		[]string{"min_velocity_ms", "5"},
		[]string{"max_power_w", "10"},
		[]string{"max_payload_g", "110"},
		[]string{"min_velocity_ms", "1000"})
	hostileSuperset := []string{"uav", hostileUAVs[0], "sensor", "default"}
	for _, name := range hostileSensors {
		hostileSuperset = append(hostileSuperset, "sensor", name)
	}
	entry("hostile-store", hostileSuperset,
		[]string{"min_velocity_ms", "5"},
		[]string{"max_power_w", "5"},
		[]string{"max_payload_g", "60"},
		[]string{"min_velocity_ms", "1000"})

	// Engine-rendered figures. /grid.svg: the default 40×30 shape,
	// plain and under a mission objective; a compute axis spanning
	// nine decades, whose tick labels take the e-notation branch of
	// formatTick (heatmap cells sit on a uniform index grid, so this is
	// the grid's log-scale case); and the hostile-name catalog, whose
	// names reach the title. /sweep.svg: one request per knob, plus a
	// log-spaced compute sweep on a log x axis.
	grid := func(kv ...string) string {
		return goldenQuery(append([]string{"uav", catalog.UAVAscTecPelican, "compute", catalog.ComputeTX2,
			"algorithm", catalog.AlgoDroNet}, kv...)...)
	}
	urls = append(urls,
		"http://default/grid.svg?"+grid("x", "payload", "xlo", "0", "xhi", "300", "y", "range", "ylo", "4", "yhi", "20"),
		"http://default/grid.svg?"+grid("x", "payload", "xlo", "0", "xhi", "300", "y", "compute", "ylo", "1", "yhi", "120",
			"objective", "mission.endurance"),
		"http://default/grid.svg?"+grid("x", "compute", "xlo", "0.0005", "xhi", "5e6", "y", "sensor", "ylo", "1", "yhi", "200",
			"nx", "24", "ny", "12"),
		"http://hostile/grid.svg?"+goldenQuery("uav", hostileUAVs[0], "compute", hostileComputes[0], "algorithm", hostileAlgorithms[0],
			"x", "payload", "xlo", "0", "xhi", "300", "y", "range", "ylo", "4", "yhi", "20", "nx", "16", "ny", "12"),
		"http://default/sweep.svg?"+grid("knob", "payload", "lo", "0", "hi", "400"),
		"http://default/sweep.svg?"+grid("knob", "range", "lo", "1", "hi", "30"),
		"http://default/sweep.svg?"+grid("knob", "sensor", "lo", "1", "hi", "120"),
		"http://default/sweep.svg?"+grid("knob", "compute", "lo", "1", "hi", "200"),
		"http://default/sweep.svg?"+grid("knob", "compute", "lo", "1", "hi", "200", "n", "200", "log", "true"),
	)
	return urls
}

// TestGolden serves every corpus URL in process and compares each
// body's hash and length with testdata/golden.txt: same request, same
// bytes, across commits. -update rewrites the file; a changed line is
// a changed response, so the commit that moves one says why.
//
// A constrained slice on a store host must also be a filtered store
// answer, byte-identical to what the storeless server over the same
// catalog computes.
func TestGolden(t *testing.T) {
	servers := goldenServers(t)
	var got []string
	for _, u := range goldenURLs() {
		req := httptest.NewRequest(http.MethodGet, u, nil)
		rec := httptest.NewRecorder()
		servers[req.Host].ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d, want 200: %s", u, rec.Code, rec.Body)
			continue
		}
		if twin, ok := goldenStoreTwins[req.Host]; ok && isFilteredSlice(req.URL.Query()) {
			if h := rec.Header().Get("X-Explore-Store"); h != "filtered" {
				t.Errorf("%s: X-Explore-Store = %q, want \"filtered\"", u, h)
			}
			ref := httptest.NewRecorder()
			servers[twin].ServeHTTP(ref, httptest.NewRequest(http.MethodGet, u, nil))
			if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
				t.Errorf("%s: filtered answer differs from the storeless %s server's (%d vs %d bytes)", u, twin, rec.Body.Len(), ref.Body.Len())
			}
		}
		got = append(got, fmt.Sprintf("%x  %d  %s", sha256.Sum256(rec.Body.Bytes()), rec.Body.Len(), u))
	}
	if t.Failed() {
		return
	}
	if *update {
		data := "# sha256  length  URL; regenerate with: go test ./internal/skyline -run TestGolden -update\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(goldenPath, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned on amd64; on %s the compiler may fuse multiply-adds, so float digits can differ", runtime.GOARCH)
	}
	want := readGolden(t)
	for _, line := range got {
		u := line[strings.LastIndex(line, "  ")+2:]
		w, ok := want[u]
		switch {
		case !ok:
			t.Errorf("%s: not in %s (run with -update)", u, goldenPath)
		case w != line:
			t.Errorf("%s: response changed\n got %s\nwant %s", u, line, w)
		}
		delete(want, u)
	}
	if len(want) > 0 {
		t.Errorf("%s has %d lines for URLs no longer in the corpus (run with -update)", goldenPath, len(want))
	}
}

// readGolden indexes the committed corpus lines by URL.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines[line[strings.LastIndex(line, "  ")+2:]] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
