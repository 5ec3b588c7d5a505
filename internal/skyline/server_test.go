package skyline

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(nil))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, u string) (int, string) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestPageServesKnobsAndAnalysis(t *testing.T) {
	srv := newTestServer(t)
	status, body := get(t, srv.URL+"/")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	for _, want := range []string{
		"Skyline", "UAV system parameter knobs", "Visualization area",
		"Optimization tips", catalog.UAVAscTecPelican, catalog.ComputeTX2,
		catalog.AlgoDroNet, "Analysis",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

func TestPageNotFound(t *testing.T) {
	srv := newTestServer(t)
	status, _ := get(t, srv.URL+"/nonexistent")
	if status != http.StatusNotFound {
		t.Errorf("status = %d, want 404", status)
	}
}

func TestPlotSVG(t *testing.T) {
	srv := newTestServer(t)
	status, body := get(t, srv.URL+"/plot.svg?mode=preset&uav="+url.QueryEscape(catalog.UAVDJISpark))
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "knee") {
		t.Error("SVG incomplete")
	}
}

func TestPlotBadParams(t *testing.T) {
	srv := newTestServer(t)
	status, _ := get(t, srv.URL+"/plot.svg?mode=custom") // missing knobs
	if status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", status)
	}
	status, _ = get(t, srv.URL+"/plot.svg?mode=weird")
	if status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", status)
	}
	status, _ = get(t, srv.URL+"/plot.svg?mode=preset&uav=bogus")
	if status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", status)
	}
	status, _ = get(t, srv.URL+"/plot.svg?sensor_hz=abc")
	if status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", status)
	}
}

func TestAnalyzeAPIPreset(t *testing.T) {
	srv := newTestServer(t)
	q := url.Values{
		"mode": {"preset"}, "uav": {catalog.UAVAscTecPelican},
		"compute": {catalog.ComputeTX2}, "algorithm": {catalog.AlgoDroNet},
	}
	status, body := get(t, srv.URL+"/api/analyze?"+q.Encode())
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var out AnalysisJSON
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if math.Abs(float64(out.KneeHz)-43) > 0.5 {
		t.Errorf("knee = %v, want ≈43", out.KneeHz)
	}
	if out.Bound != "physics-bound" {
		t.Errorf("bound = %q", out.Bound)
	}
	if len(out.OptimizationTip) == 0 {
		t.Error("no optimization tips")
	}
}

func TestAnalyzeAPICustom(t *testing.T) {
	srv := newTestServer(t)
	q := url.Values{
		"mode":              {"custom"},
		"drone_weight_g":    {"1000"},
		"rotor_pull_gf":     {"650"},
		"payload_g":         {"200"},
		"sensor_hz":         {"60"},
		"sensor_range_m":    {"4.5"},
		"compute_runtime_s": {"0.0056"},
		"tdp_w":             {"15"},
	}
	status, body := get(t, srv.URL+"/api/analyze?"+q.Encode())
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var out AnalysisJSON
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if out.SafeVelocityMS <= 0 {
		t.Errorf("v_safe = %v, want > 0", out.SafeVelocityMS)
	}
	// The 15 W TDP knob must have added a heatsink (~85 g) to the 200 g
	// payload.
	if out.PayloadG < 280 || out.PayloadG > 290 {
		t.Errorf("payload = %v g, want ≈285 (200 + heatsink)", out.PayloadG)
	}
}

func TestAnalyzeDefaultsToPreset(t *testing.T) {
	srv := newTestServer(t)
	status, body := get(t, srv.URL+"/api/analyze")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var out AnalysisJSON
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Name, catalog.UAVAscTecPelican) {
		t.Errorf("default config = %q, want Pelican", out.Name)
	}
}

func TestParseParamsErrors(t *testing.T) {
	if _, err := ParseParams(url.Values{"mode": {"bogus"}}); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := ParseParams(url.Values{"tdp_w": {"x"}}); err == nil {
		t.Error("non-numeric accepted")
	}
	p, err := ParseParams(url.Values{})
	if err != nil || p.Mode != "preset" {
		t.Errorf("empty query: %+v, %v", p, err)
	}
}

func TestCustomConfigValidation(t *testing.T) {
	cat := catalog.Default()
	cases := []Params{
		{Mode: "custom"}, // nothing set
		{Mode: "custom", DroneWeightG: 1000, RotorPullGF: 650},                                  // no sensor
		{Mode: "custom", DroneWeightG: 1000, RotorPullGF: 650, SensorHz: 60, SensorRangeM: 4.5}, // no runtime
	}
	for i, p := range cases {
		if _, err := p.Config(cat); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestTipsCoverAllBounds(t *testing.T) {
	cat := catalog.Default()
	mk := func(sel catalog.Selection) core.Analysis {
		an, err := cat.Analyze(sel)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	phys := mk(catalog.Selection{UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoDroNet})
	if tips := Tips(phys); !strings.Contains(strings.Join(tips, " "), "physics-bound") {
		t.Errorf("physics tips = %v", tips)
	}
	comp := mk(catalog.Selection{UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoSPA})
	if tips := Tips(comp); !strings.Contains(strings.Join(tips, " "), "Compute-bound") {
		t.Errorf("compute tips = %v", tips)
	}
}

func TestChartIncludesCeilings(t *testing.T) {
	cat := catalog.Default()
	an, err := cat.Analyze(catalog.Selection{
		UAV: catalog.UAVAscTecPelican, Compute: catalog.ComputeTX2, Algorithm: catalog.AlgoSPA})
	if err != nil {
		t.Fatal(err)
	}
	ch := Chart(an)
	if len(ch.Ceilings) == 0 {
		t.Error("compute-bound chart missing ceiling")
	}
	if len(ch.Series) != 2 || len(ch.Markers) < 2 {
		t.Errorf("chart structure: %d series, %d markers", len(ch.Series), len(ch.Markers))
	}
}

// TestPageEscapesHostileQuery is the regression test for the dead
// URL-escaping bug: the raw query string used to flow into the page
// template verbatim. A hostile value in an ignored extra parameter —
// which leaves the analysis (and thus the <img> URL) intact — must
// come out percent-escaped, and the legitimate pairs must survive
// structurally (the old code's double-escape turned = and & into %3d
// and %26, silently breaking every non-default plot URL).
func TestPageEscapesHostileQuery(t *testing.T) {
	srv := newTestServer(t)
	status, body := get(t, srv.URL+`/?mode=preset&evil=<script>alert(1)</script>`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(body, "/plot.svg?") {
		t.Fatal("page did not render the plot image")
	}
	for _, hostile := range []string{"<script>alert", "</script>"} {
		if strings.Contains(body, hostile) {
			t.Errorf("hostile query leaked into page: %q", hostile)
		}
	}
	// The escaping must not break the round trip: the legitimate pair
	// still reaches the plot URL in key=value form.
	if !strings.Contains(body, "mode=preset") {
		t.Error("escaping destroyed the query structure (mode=preset missing)")
	}
	if !strings.Contains(body, "evil=%3Cscript%3E") {
		t.Error("hostile value not percent-escaped")
	}
}

func TestPageSurvivesUnparseableQuery(t *testing.T) {
	srv := newTestServer(t)
	status, _ := get(t, srv.URL+`/?bad=%zz;x=%`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	// A malformed pair must not discard the well-formed ones: the plot
	// image has to show the same configuration as the analysis pane.
	status, body := get(t, srv.URL+`/?uav=`+url.QueryEscape(catalog.UAVDJISpark)+`&junk=%zz`)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(body, "uav=DJI") {
		t.Error("valid query pair dropped alongside the malformed one")
	}
}

// TestParseParamsRejectsNegatives covers every numeric knob: negative
// values are physical nonsense and must 400 at the parse boundary.
func TestParseParamsRejectsNegatives(t *testing.T) {
	keys := []string{
		"tdp_w", "drone_weight_g", "rotor_pull_gf", "payload_g",
		"sensor_hz", "sensor_range_m", "compute_runtime_s", "control_hz",
	}
	for _, key := range keys {
		t.Run(key, func(t *testing.T) {
			if _, err := ParseParams(url.Values{key: {"-1"}}); err == nil {
				t.Errorf("%s=-1 accepted", key)
			}
			if _, err := ParseParams(url.Values{key: {"-0.001"}}); err == nil {
				t.Errorf("%s=-0.001 accepted", key)
			}
			// Zero (unset) and positive values stay legal.
			if _, err := ParseParams(url.Values{key: {"0"}}); err != nil {
				t.Errorf("%s=0 rejected: %v", key, err)
			}
			if _, err := ParseParams(url.Values{key: {"12.5"}}); err != nil {
				t.Errorf("%s=12.5 rejected: %v", key, err)
			}
		})
	}
}

func TestNegativeKnobIs400(t *testing.T) {
	srv := newTestServer(t)
	for _, path := range []string{
		"/api/analyze?payload_g=-50",
		"/plot.svg?sensor_hz=-10",
		"/sweep.svg?knob=payload&lo=1&hi=10&tdp_w=-3",
	} {
		status, body := get(t, srv.URL+path)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", path, status, body)
		}
	}
}

func TestGridSVG(t *testing.T) {
	srv := newTestServer(t)
	status, body := get(t, srv.URL+
		"/grid.svg?x=payload&xlo=0&xhi=600&y=compute&ylo=1&yhi=100&nx=12&ny=8")
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	for _, want := range []string{"<svg", "payload (g)", "compute rate (Hz)", "v_safe (m/s)"} {
		if !strings.Contains(body, want) {
			t.Errorf("grid SVG missing %q", want)
		}
	}
	// 12×8 cells plus the color bar: the SVG is a dense rect field.
	if n := strings.Count(body, "<rect"); n < 96 {
		t.Errorf("only %d rects in a 12×8 grid", n)
	}
}

func TestGridBadParams(t *testing.T) {
	srv := newTestServer(t)
	for _, q := range []string{
		"",                        // no axes
		"x=payload&xlo=0&xhi=600", // no y
		"x=payload&y=payload&xlo=0&xhi=1&ylo=0&yhi=1",              // same knob twice
		"x=payload&y=compute&xlo=0&xhi=1&ylo=9&yhi=1",              // empty y range
		"x=payload&y=compute&xhi=1&ylo=0&yhi=1",                    // missing xlo
		"x=payload&y=compute&xlo=0&xhi=1&ylo=0&yhi=1&nx=1",         // nx too small
		"x=payload&y=compute&xlo=0&xhi=1&ylo=0&yhi=1&ny=9999",      // ny too large
		"x=warp&y=compute&xlo=0&xhi=1&ylo=0&yhi=1",                 // unknown knob
		"x=payload&y=compute&xlo=0&xhi=1&ylo=0&yhi=1&payload_g=-5", // negative knob
	} {
		status, _ := get(t, srv.URL+"/grid.svg?"+q)
		if status != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", q, status)
		}
	}
}

// TestAnalyzeOverProvisionedInfiniteGap is the non-finite-float
// regression: an over-provisioned configuration with infinite-rate
// stages has GapFactor and ActionHz = +Inf, which encoding/json
// rejects outright — /api/analyze used to answer 500 ("json:
// unsupported value") for a perfectly legitimate design. The response
// must now be a 200 with valid JSON, the non-finite readings encoded
// as null.
func TestAnalyzeOverProvisionedInfiniteGap(t *testing.T) {
	srv := newTestServer(t)
	q := url.Values{
		"mode":              {"custom"},
		"drone_weight_g":    {"1000"},
		"rotor_pull_gf":     {"650"},
		"sensor_hz":         {"Inf"}, // a free sensor stage
		"sensor_range_m":    {"4.5"},
		"compute_runtime_s": {"1e-323"}, // 1/denormal overflows to +Inf Hz
		"control_hz":        {"Inf"},
	}
	status, body := get(t, srv.URL+"/api/analyze?"+q.Encode())
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", status, body)
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"gap_factor", "action_hz"} {
		if v, ok := raw[key]; !ok || v != nil {
			t.Errorf("%s = %v, want null (non-finite sanitized)", key, v)
		}
	}
	if raw["class"] != "over-provisioned" {
		t.Errorf("class = %v, want over-provisioned", raw["class"])
	}
	// The typed decode round-trips null back to +Inf.
	var out AnalysisJSON
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(out.GapFactor), 1) {
		t.Errorf("decoded gap factor = %v, want +Inf", out.GapFactor)
	}
}

func TestParamsRejectNaN(t *testing.T) {
	srv := newTestServer(t)
	status, body := get(t, srv.URL+"/api/analyze?payload_g=NaN")
	if status != http.StatusBadRequest {
		t.Errorf("NaN knob: status = %d, want 400: %s", status, body)
	}
}

// failingSVG appends half a figure and then fails — the shape of a
// mid-render error.
type failingSVG struct{}

func (failingSVG) AppendSVG(dst []byte) ([]byte, error) {
	return append(dst, "<svg><rect/>"...), errors.New("renderer broke mid-stream")
}

// TestRenderSVGNoMidStreamSplice is the corrupt-chart regression: the
// SVG handlers used to stream straight into the ResponseWriter and
// call http.Error on failure, splicing error text (and a useless 500
// status line) into the middle of an already-committed 200 SVG body.
// Rendering is now buffered, so a failing figure yields a clean 500
// with no SVG bytes in front of it.
func TestRenderSVGNoMidStreamSplice(t *testing.T) {
	rec := httptest.NewRecorder()
	renderSVG(rec, failingSVG{})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "<svg") {
		t.Fatalf("partial SVG spliced into the error response: %q", body)
	}
	if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "svg") {
		t.Errorf("error response advertises SVG content type %q", ct)
	}
}

// TestSweepSVGBufferedResponse: the happy path now carries an exact
// Content-Length (a side effect of buffering) and a complete document.
func TestSweepSVGBufferedResponse(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/sweep.svg?knob=payload&lo=100&hi=600&n=20")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length = %q, body is %d bytes", cl, len(body))
	}
	if !strings.HasPrefix(string(body), "<?xml") && !strings.HasPrefix(string(body), "<svg") {
		t.Errorf("response does not start with an SVG document: %.40q", body)
	}
	if !strings.Contains(string(body), "</svg>") {
		t.Error("SVG document is incomplete")
	}
}

// TestSweepGridRejectNonFiniteBounds: ParseFloat accepts "NaN"/"Inf",
// and a NaN axis bound used to flow into the physics models as a NaN
// knob value — panicking a calibrated acceleration table's segment
// search and killing the handler. All bounds must be finite, 400
// otherwise.
func TestSweepGridRejectNonFiniteBounds(t *testing.T) {
	srv := newTestServer(t)
	for _, q := range []string{
		"/sweep.svg?knob=payload&lo=NaN&hi=600&n=20",
		"/sweep.svg?knob=payload&lo=100&hi=Inf&n=20",
		"/grid.svg?x=payload&xlo=NaN&xhi=600&y=compute&ylo=1&yhi=100",
		"/grid.svg?x=payload&xlo=0&xhi=600&y=compute&ylo=1&yhi=Inf",
		// An infinite mass fails configuration validation.
		"/api/analyze?mode=custom&drone_weight_g=1000&rotor_pull_gf=650&sensor_hz=60&sensor_range_m=4.5&compute_runtime_s=0.005&payload_g=Inf",
	} {
		status, body := get(t, srv.URL+q)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %.80s", q, status, body)
		}
	}
}

// BenchmarkPlotEndpoint serves one /plot.svg (Pelican+TX2+DroNet) in
// process: parse, analysis, chart build and render, with no transport.
func BenchmarkPlotEndpoint(b *testing.B) {
	benchSVGEndpoint(b, "/plot.svg?algorithm=DroNet&compute=Nvidia+TX2&uav=AscTec+Pelican")
}

// BenchmarkGridEndpoint serves one storeless /grid.svg in process: the
// 40×30 payload × compute-rate grid of the perfbench interactive-mix
// miss, so every request sweeps and renders.
func BenchmarkGridEndpoint(b *testing.B) {
	benchSVGEndpoint(b, "/grid.svg?algorithm=DroNet&compute=Nvidia+TX2&uav=AscTec+Pelican"+
		"&x=payload&xlo=1&xhi=600&y=compute&ylo=1&yhi=120&nx=40&ny=30")
}

func benchSVGEndpoint(b *testing.B, target string) {
	srv := NewServer(nil)
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
	}
}
