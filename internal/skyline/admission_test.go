package skyline

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/catalog"
)

// saturate opens a streaming /explore request against a big synthetic
// space and reads its first line, guaranteeing the handler holds an
// admission slot until the returned closer runs.
func saturate(t *testing.T, srv *httptest.Server) (stream *bufio.Reader, done func()) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/explore")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		t.Fatalf("reading first streamed line: %v", err)
	}
	return br, func() { resp.Body.Close() }
}

func TestExploreAdmission429(t *testing.T) {
	cat := catalog.Synthetic(10, 40, 40) // 16000 candidates: a long stream
	// QueueDepth < 0 disables the wait queue: this test pins the legacy
	// instant-shed mode (queued admission is covered in saturation_test.go).
	s := NewServerWith(cat, Options{MaxInflight: 1, QueueDepth: -1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	stream, done := saturate(t, srv)
	defer done()

	// The saturated server sheds the second exploration with 429 +
	// Retry-After instead of queueing it.
	for _, path := range []string{
		"/explore",
		"/grid.svg?x=payload&xlo=0&xhi=600&y=compute&ylo=1&yhi=100",
		"/sweep.svg?knob=payload&lo=0&hi=600",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s while saturated: status = %d, want 429", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s: 429 without Retry-After", path)
		}
	}

	// Cheap non-exploration endpoints stay open under saturation.
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ while saturated: status = %d", resp.StatusCode)
	}

	// The admitted stream keeps flowing while the server sheds load.
	if _, err := stream.ReadBytes('\n'); err != nil {
		t.Fatalf("admitted stream stalled: %v", err)
	}

	// Rejections are visible on /healthz.
	var h HealthJSON
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Rejected < 3 || h.MaxInflight != 1 || h.InflightActive != 1 {
		t.Fatalf("healthz gauges = %+v, want rejected>=3, max 1, active 1", h)
	}

	// Releasing the slot re-opens admission (the handler needs a moment
	// to observe the disconnect and return).
	done()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/explore?top=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: status = %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExploreWorkersClamp(t *testing.T) {
	s := NewServerWith(nil, Options{MaxWorkersPerRequest: 2})
	srv := httptest.NewServer(s)
	defer srv.Close()
	cap := min(2, runtime.GOMAXPROCS(0))

	// Only a heavy objective runs on the pool, so the clamp cases pick
	// one; a plain exploration runs inline whatever it asks for.
	const heavy = "objective=mission.stochastic&"
	for query, want := range map[string]int{
		heavy + "workers=32": cap, // oversized requests clamp to the server cap
		heavy + "workers=1":  1,   // smaller requests are honored
		heavy:                cap, // absent defaults to the cap
		"workers=32":         1,   // plain: inline, and the header says so
	} {
		resp, err := http.Get(srv.URL + "/explore?" + query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?%s: status = %d", query, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Explore-Workers"); got != strconv.Itoa(want) {
			t.Errorf("?%s: X-Explore-Workers = %q, want %d", query, got, want)
		}
	}

	for _, bad := range []string{"workers=0", "workers=-3", "workers=x"} {
		resp, err := http.Get(srv.URL + "/explore?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}

	// The clamp covers every engine-driven endpoint, not just /explore.
	for _, path := range []string{
		"/grid.svg?x=payload&xlo=0&xhi=600&y=compute&ylo=1&yhi=100&workers=64",
		"/sweep.svg?knob=payload&lo=0&hi=600&workers=64",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Explore-Workers"); got != strconv.Itoa(cap) {
			t.Errorf("%s: X-Explore-Workers = %q, want %d", path, got, cap)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := NewServer(nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/analyze")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var h HealthJSON
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.MaxInflight != 0 || h.InflightActive != 0 || h.Rejected != 0 {
		t.Errorf("admission gauges = %+v, want all zero (unlimited)", h)
	}
	if h.MaxWorkersPerRequest != runtime.GOMAXPROCS(0) {
		t.Errorf("max workers = %d, want GOMAXPROCS", h.MaxWorkersPerRequest)
	}
	// The server keeps no analysis cache, so /healthz reports none.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"cache", "cache_hit_rate"} {
		if _, ok := raw[key]; ok {
			t.Errorf("/healthz still carries %q", key)
		}
	}
}
