package skyline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/faultinject"
	"repro/internal/units"
)

// exploreLines GETs an /explore URL and decodes the NDJSON body.
func exploreLines(t *testing.T, u string) []ExploreCandidateJSON {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var out []ExploreCandidateJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var line ExploreCandidateJSON
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameCandidates asserts the streamed lines match the engine's
// slate element for element.
func requireSameCandidates(t *testing.T, want []dse.Candidate, got []ExploreCandidateJSON) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("candidate count: engine %d, endpoint %d", len(want), len(got))
	}
	for i := range want {
		if got[i].Name != want[i].Name() {
			t.Fatalf("line %d: name %q, want %q", i, got[i].Name, want[i].Name())
		}
		if v := want[i].Analysis.SafeVelocity.MetersPerSecond(); math.Abs(float64(got[i].VSafeMS)-v) > 1e-9 {
			t.Fatalf("line %d: v_safe %v, want %v", i, got[i].VSafeMS, v)
		}
	}
}

func defaultSpace(cat *catalog.Catalog) dse.Space {
	return dse.Space{
		UAVs:       cat.UAVNames(),
		Computes:   cat.ComputeNames(),
		Algorithms: cat.AlgorithmNames(),
	}
}

func TestExploreStreamMatchesEnumerate(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	want, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	got := exploreLines(t, srv.URL+"/explore")
	requireSameCandidates(t, want, got)
}

func TestExploreSpaceSubsets(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVDJISpark},
		Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2},
		Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet},
	}
	want, err := dse.Enumerate(cat, space, dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("empty subset slate")
	}
	// Repeated keys and comma-separated lists both describe the axis.
	q := "uav=" + strings.ReplaceAll(catalog.UAVDJISpark, " ", "%20") +
		"&compute=" + strings.ReplaceAll(catalog.ComputeNCS+","+catalog.ComputeTX2, " ", "%20") +
		"&algorithm=" + catalog.AlgoDroNet + "&algorithm=" + catalog.AlgoTrailNet
	got := exploreLines(t, srv.URL+"/explore?"+q)
	requireSameCandidates(t, want, got)
}

func TestExploreSensorAxis(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVAscTecPelican},
		Computes:   []string{catalog.ComputeTX2},
		Algorithms: []string{catalog.AlgoDroNet},
		Sensors:    []string{catalog.SensorRGBD},
	}
	want, err := dse.Enumerate(cat, space, dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	got := exploreLines(t, srv.URL+"/explore?uav="+strings.ReplaceAll(catalog.UAVAscTecPelican, " ", "%20")+
		"&compute="+strings.ReplaceAll(catalog.ComputeTX2, " ", "%20")+
		"&algorithm="+catalog.AlgoDroNet+"&sensor="+strings.ReplaceAll(catalog.SensorRGBD, " ", "%20"))
	requireSameCandidates(t, want, got)
	for _, line := range got {
		if line.Sensor != catalog.SensorRGBD {
			t.Errorf("sensor = %q", line.Sensor)
		}
	}
}

func TestExploreSensorDefaultKeyword(t *testing.T) {
	// sensor=default (the UAV's own sensor) combines with named sensors
	// in one request — the dse.Space "" choice, reachable via query.
	srv := newTestServer(t)
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVAscTecPelican},
		Computes:   []string{catalog.ComputeTX2},
		Algorithms: []string{catalog.AlgoDroNet},
		Sensors:    []string{"", catalog.SensorRGBD},
	}
	want, err := dse.Enumerate(cat, space, dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("slate = %d, want 2 (default + named sensor)", len(want))
	}
	got := exploreLines(t, srv.URL+"/explore?uav="+strings.ReplaceAll(catalog.UAVAscTecPelican, " ", "%20")+
		"&compute="+strings.ReplaceAll(catalog.ComputeTX2, " ", "%20")+
		"&algorithm="+catalog.AlgoDroNet+
		"&sensor=default&sensor="+strings.ReplaceAll(catalog.SensorRGBD, " ", "%20"))
	requireSameCandidates(t, want, got)
}

func TestExploreConstraints(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	cons := dse.Constraints{MaxPower: units.Watts(5), MinVelocity: units.MetersPerSecond(1)}
	want, err := dse.Enumerate(cat, defaultSpace(cat), cons)
	if err != nil {
		t.Fatal(err)
	}
	all, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) == len(all) {
		t.Fatalf("constraints should prune some but not all (kept %d of %d)", len(want), len(all))
	}
	got := exploreLines(t, srv.URL+"/explore?max_power_w=5&min_velocity_ms=1")
	requireSameCandidates(t, want, got)
	for _, line := range got {
		if line.PowerW > 5 || line.VSafeMS < 1 {
			t.Errorf("constraint violated: %s (%.1f W, %.2f m/s)", line.Name, line.PowerW, line.VSafeMS)
		}
	}
}

func TestExploreTopK(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	all, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	for rank, obj := range map[string]dse.Objective{"velocity": dse.MaxVelocity, "balance": dse.Balance} {
		want := dse.TopK(all, obj, 3)
		got := exploreLines(t, srv.URL+"/explore?top=3&rank="+rank)
		requireSameCandidates(t, want, got)
	}
	// Default rank is velocity.
	got := exploreLines(t, srv.URL+"/explore?top=5")
	requireSameCandidates(t, dse.TopK(all, dse.MaxVelocity, 5), got)
}

func TestExplorePareto(t *testing.T) {
	srv := newTestServer(t)
	cat := catalog.Default()
	all, err := dse.Enumerate(cat, defaultSpace(cat), dse.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := dse.ParetoFront(all, dse.MaxVelocity, dse.MinPower)
	if err != nil {
		t.Fatal(err)
	}
	got := exploreLines(t, srv.URL+"/explore?pareto=velocity,power")
	requireSameCandidates(t, want, got)

	want3, err := dse.ParetoFront(all, dse.MaxVelocity, dse.MinPower, dse.MinPayload)
	if err != nil {
		t.Fatal(err)
	}
	got3 := exploreLines(t, srv.URL+"/explore?pareto=velocity,power,payload")
	requireSameCandidates(t, want3, got3)
}

func TestExploreBadParams(t *testing.T) {
	srv := newTestServer(t)
	for _, q := range []string{
		"uav=bogus",
		"compute=bogus",
		"algorithm=bogus",
		"sensor=bogus",
		"max_power_w=-1",
		"max_payload_g=-0.5",
		"min_velocity_ms=abc",
		"top=0",
		"top=-2",
		"top=x",
		"top=3&rank=warp",
		"rank=velocity",               // rank without top
		"top=3&pareto=velocity,power", // mutually exclusive
		"pareto=velocity,warp",
	} {
		resp, err := http.Get(srv.URL + "/explore?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestExploreStreamsAndDisconnectCancels drives the acceptance
// criterion end to end against a synthetically enlarged catalog: the
// first NDJSON line must arrive while the exploration is still
// running, and closing the connection must cancel it. Every chunk is
// slowed, so the full 16000-candidate inline stream (32 grains of 512)
// takes well over a second; a handler that noticed the disconnect
// returns within about one chunk delay of it, one that kept streaming
// returns only at the end of the space.
func TestExploreStreamsAndDisconnectCancels(t *testing.T) {
	cat := catalog.Synthetic(10, 40, 40) // 16000 candidates
	const chunkDelay = 50 * time.Millisecond
	const fullStream = 32 * chunkDelay
	defer faultinject.Enable(faultinject.SiteDSEChunk, faultinject.Fault{Latency: chunkDelay})()
	s := NewServer(cat)
	returned := make(chan time.Time, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ServeHTTP(w, r)
		returned <- time.Now()
	}))
	defer srv.Close()

	baseline := runtime.NumGoroutine()
	resp, err := http.Get(srv.URL + "/explore")
	if err != nil {
		t.Fatal(err)
	}
	// The first line must be readable before the exploration finishes
	// (the handler flushes the first line at once).
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first streamed line: %v", err)
	}
	var first ExploreCandidateJSON
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("first line %q: %v", line, err)
	}
	if first.Name == "" {
		t.Fatal("first line has no name")
	}
	disconnected := time.Now()
	resp.Body.Close() // mid-stream disconnect

	// Cancellation: the handler returns well before the full stream
	// could have been produced.
	select {
	case end := <-returned:
		if took := end.Sub(disconnected); took >= fullStream/2 {
			t.Fatalf("handler returned %v after the disconnect, want < %v: the exploration kept running", took, fullStream/2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler still running 5s after the disconnect")
	}
	// And the handler + worker goroutines wind down to baseline.
	waitUntil := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseline+1 { // allow one lingering http keep-alive goroutine
		t.Errorf("goroutines after disconnect: %d, baseline %d", n, baseline)
	}
}

// TestExploreStreamFlushesOnInterval pins the streaming flush budget.
// Every scheduler chunk is slowed past exploreFlushInterval, so the
// handler must flush again once the interval has passed: a line from
// a later chunk reaches the client well before the response ends,
// rather than only with the final flush.
func TestExploreStreamFlushesOnInterval(t *testing.T) {
	// A plain exploration streams inline whatever workers= asks for,
	// and the chunk fault fires on the inline chunk loop too: 64
	// candidates in grains of 8, walked in sequence, so the stream
	// spans 8 chunk delays.
	cat := catalog.Synthetic(2, 4, 8)
	srv := httptest.NewServer(NewServer(cat))
	defer srv.Close()
	const chunkDelay = 8 * exploreFlushInterval
	defer faultinject.Enable(faultinject.SiteDSEChunk, faultinject.Fault{Latency: chunkDelay})()

	resp, err := http.Get(srv.URL + "/explore?workers=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Explore-Workers"); got != "1" {
		t.Fatalf("X-Explore-Workers = %q, want 1", got)
	}
	const grain = 8
	br := bufio.NewReader(resp.Body)
	var lines int
	var laterChunkAt time.Time
	for {
		_, err := br.ReadBytes('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if lines++; lines == grain+1 {
			laterChunkAt = time.Now()
		}
	}
	end := time.Now()
	if lines != 64 {
		t.Fatalf("streamed %d lines, want 64", lines)
	}
	if early := end.Sub(laterChunkAt); early < chunkDelay/2 {
		t.Fatalf("line %d arrived %v before the end of the response, want at least %v: the stream did not flush after its first line", grain+1, early, chunkDelay/2)
	}
}

// TestExplorePanicInlineEndsStreamCleanly arms a panic at the chunk
// fault site and streams a plain /explore, which runs the chunk loop
// inline on the handler's goroutine: the panic must be recovered into a
// terminal {"error":…} line, and the server must keep serving.
func TestExplorePanicInlineEndsStreamCleanly(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil))
	defer srv.Close()
	disarm := faultinject.Enable(faultinject.SiteDSEChunk, faultinject.Fault{Panic: true})
	defer disarm()

	resp, err := http.Get(srv.URL + "/explore")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (a streamed exploration reports engine errors in-band)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Explore-Workers"); got != "1" {
		t.Fatalf("X-Explore-Workers = %q, want 1 (inline)", got)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	var last struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !strings.Contains(last.Error, "panic") {
		t.Fatalf("last line %q is not a terminal panic error", lines[len(lines)-1])
	}

	disarm()
	if got := exploreLines(t, srv.URL+"/explore"); len(got) == 0 {
		t.Fatal("no candidates after disarm: the server stopped serving")
	}
}

func TestExploreEmptySlateIsEmptyBody(t *testing.T) {
	srv := newTestServer(t)
	// An impossible constraint leaves nothing to stream — the response
	// is a valid, empty NDJSON document.
	got := exploreLines(t, srv.URL+"/explore?min_velocity_ms=10000")
	if len(got) != 0 {
		t.Fatalf("got %d lines, want 0", len(got))
	}
}

// BenchmarkExploreEndpoint measures a full /explore request over the
// default catalog — the serving hot path (parse, explore, encode,
// flush) end to end, with the server's compiled space warm. Part of
// the CI bench smoke step.
func BenchmarkExploreEndpoint(b *testing.B) { benchExploreEndpoint(b, nil, 0) }

// BenchmarkExploreEndpointAlgoHeavy streams all 2048 candidates of
// catalog.SyntheticAlgoHeavy(8, 16, 16), the perfbench explore-stream
// shape: the request where per-line encoding dominates.
func BenchmarkExploreEndpointAlgoHeavy(b *testing.B) {
	benchExploreEndpoint(b, catalog.SyntheticAlgoHeavy(8, 16, 16), 2048)
}

// benchExploreEndpoint drives default /explore requests at a server
// over cat and requires want lines per response (0 = any non-empty
// stream).
func benchExploreEndpoint(b *testing.B, cat *catalog.Catalog, want int) {
	srv := httptest.NewServer(NewServer(cat))
	defer srv.Close()
	client := srv.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(srv.URL + "/explore")
		if err != nil {
			b.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		n := 0
		for sc.Scan() {
			n++
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			b.Fatal(err)
		}
		if n == 0 || (want > 0 && n != want) {
			b.Fatalf("streamed %d candidates, want %d", n, want)
		}
	}
}
