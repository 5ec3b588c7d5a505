package main

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"
	"time"
)

// inputs flattens everything a workload would send: warm-up, known
// requests, the first closed-loop requests and the open-loop schedule.
func inputs(t *testing.T, name string, seed int64) []string {
	t.Helper()
	w, err := newWorkload(name, seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range w.warmup {
		out = append(out, "warm "+r.url)
	}
	for _, r := range w.known {
		out = append(out, "known "+r.url)
	}
	if w.next != nil {
		for i := 0; i < 300; i++ {
			out = append(out, "next "+w.next(i).url)
		}
	}
	for _, a := range w.schedule {
		out = append(out, a.at.String()+" "+a.req.url)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, b := inputs(t, name, 7), inputs(t, name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different request lists", name)
		}
		if reflect.DeepEqual(a, inputs(t, name, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", name)
		}
	}
}

func TestOpenLoopScheduleIsOrderedAndSized(t *testing.T) {
	w, err := newWorkload("interactive-mix", 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(w.schedule); math.Abs(float64(n)-mixRate*10) > 5*math.Sqrt(mixRate*10) {
		t.Errorf("schedule holds %d arrivals, want about %d", n, mixRate*10)
	}
	for i := 1; i < len(w.schedule); i++ {
		if w.schedule[i].at < w.schedule[i-1].at || w.schedule[i].at >= 10*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the window", i, w.schedule[i].at)
		}
	}
}

func TestTailIndex(t *testing.T) {
	for _, c := range []struct {
		n    int
		idx  int
		q    float64
		isOK bool
	}{
		{n: 1000, idx: 989, q: 0.99, isOK: true},
		{n: 2000, idx: 1979, q: 0.99, isOK: true},
		{n: 500, idx: 489, q: 0.98, isOK: true},
		{n: 11, idx: 0, q: 1.0 / 11, isOK: true},
		{n: 10, isOK: false},
	} {
		idx, q, ok := tailIndex(c.n, 0.99)
		if ok != c.isOK || (ok && (idx != c.idx || math.Abs(q-c.q) > 1e-12)) {
			t.Errorf("tailIndex(%d) = %d, %v, %v; want %d, %v, %v", c.n, idx, q, ok, c.idx, c.q, c.isOK)
		}
	}
	// For every size: at least minTail samples lie beyond, and the
	// percentile is the highest one that leaves them.
	for n := minTail + 1; n < 5000; n++ {
		idx, _, _ := tailIndex(n, 0.99)
		beyond := n - idx - 1
		if beyond < minTail {
			t.Fatalf("n=%d: only %d samples beyond", n, beyond)
		}
		if want := int(math.Ceil(0.99*float64(n))) - 1; idx != want && beyond != minTail {
			t.Fatalf("n=%d: idx %d is neither p99 (%d) nor the highest index with %d beyond", n, idx, want, minTail)
		}
	}
}

func TestSelfTimeOverNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps span 1
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 1, Start: 12, End: 14},  // grandchild of the root
		{ID: 5, Parent: 3, Start: 65, End: 120}, // runs past its parent
	}
	setSelfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 2, 30, 10 - 5, 2, 55}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %d: self %d, want %d", i, s.Self, want[i])
		}
	}
}

func TestPathTimeSumsRootPathChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 0, End: 10, Path: true},
		{ID: 2, Parent: 1, Start: 2, End: 8, Path: true}, // inside span 1: not counted twice
		{ID: 3, Parent: 0, Start: 10, End: 40, Path: false},
		{ID: 4, Parent: 0, Start: 40, End: 45, Path: true},
	}
	if got := pathTime(spans); got != 15 {
		t.Errorf("pathTime = %d, want 15", got)
	}
}

func TestCheckerRejectsFlippedByte(t *testing.T) {
	body := []byte(`{"name":"synth-uav-000 + synth-net-000 + synth-soc-000","v_safe_ms":1.5}` + "\n")
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 1
	serveBody := body
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(serveBody)
	}))
	defer ts.Close()

	req := newRequest("stream", "/explore", nil)
	r := &refs{m: map[string][32]byte{req.url: sha256.Sum256(body)}}
	c := newClient(1)
	buf := make([]byte, 7) // several reads per body
	var got []sample
	for _, b := range [][]byte{body, flipped} {
		serveBody = b
		got = append(got, fetch(c, ts.URL, req, buf, nil))
	}
	v, err := r.checkSamples(got)
	if err != nil {
		t.Fatal(err)
	}
	if v.checked != 2 || v.mismatched != 1 || v.failed != 1 {
		t.Fatalf("verdict %+v, want 2 checked, 1 mismatched, 1 failed", v)
	}
	if !got[0].ok() || got[1].ok() {
		t.Errorf("the exact body must pass and the flipped one fail")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, workloadNames)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the command %d", len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
