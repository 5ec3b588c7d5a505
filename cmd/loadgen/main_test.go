package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestParseFaults(t *testing.T) {
	specs, err := parseFaults("core.cache.fill=error, dse.chunk=latency:50ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].site != "core.cache.fill" || specs[0].fault.Err == nil {
		t.Errorf("spec 0 = %+v", specs[0])
	}
	if specs[1].site != "dse.chunk" || specs[1].fault.Latency != 50*time.Millisecond {
		t.Errorf("spec 1 = %+v", specs[1])
	}

	for _, bad := range []string{"nosite", "s=unknown", "s=latency:x", "s=latency:-1s"} {
		if _, err := parseFaults(bad); err == nil {
			t.Errorf("parseFaults(%q) accepted", bad)
		}
	}
	if specs, err := parseFaults(""); err != nil || specs != nil {
		t.Errorf("empty spec = %v, %v", specs, err)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP skyline_queue_depth Requests waiting.
# TYPE skyline_queue_depth gauge
skyline_queue_depth 3
skyline_shed_total{reason="queue_full"} 7
skyline_request_duration_seconds{endpoint="/explore",quantile="0.99"} 0.125
`
	m, err := parseMetrics(text)
	if err != nil {
		t.Fatal(err)
	}
	if m["skyline_queue_depth"] != 3 {
		t.Errorf("queue_depth = %v", m["skyline_queue_depth"])
	}
	if m[`skyline_shed_total{reason="queue_full"}`] != 7 {
		t.Errorf("shed_total = %v", m[`skyline_shed_total{reason="queue_full"}`])
	}

	for _, bad := range []string{
		"lonely_name\n",
		"name with spaces 1\n",
		"name notanumber\n",
		"# only comments\n",
	} {
		if _, err := parseMetrics(bad); err == nil {
			t.Errorf("parseMetrics(%q) accepted", bad)
		}
	}
}

// TestRunSmoke drives the full in-process harness briefly: a tiny
// slot pool with quotas on guarantees real sheds, and the report must
// come back consistent with a parsed /metrics scrape.
func TestRunSmoke(t *testing.T) {
	defer faultinject.Reset()
	rep, err := run([]string{
		"-duration", "400ms",
		"-clients", "6",
		"-max-inflight", "1",
		"-queue-depth", "2",
		"-client-rps", "5",
		"-default-timeout", "250ms",
		"-json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts == 0 {
		t.Fatal("no requests attempted")
	}
	if rep.Errors != 0 {
		t.Fatalf("transport errors: %d", rep.Errors)
	}
	if !rep.MetricsOK {
		t.Fatal("/metrics did not parse")
	}
	if len(rep.ByStatus) == 0 {
		t.Fatal("no statuses recorded")
	}
	// With 6 clients on 1 slot + queue of 2, the admission layer must
	// have been exercised (sheds or queue waits — either proves it).
	if rep.Server.sheds() == 0 && rep.Server.QueueWaitP99 == 0 {
		t.Error("saturation run produced neither sheds nor queue waits")
	}
	if failures := rep.gateFailures(); len(failures) != 0 {
		t.Fatalf("ungated run reported failures: %v", failures)
	}
}

// TestRunFaultArmsAndDisarms checks -fault wires through: an error
// fault at the engine's chunk site must turn the cold scenario's top-3
// explorations into 400s without breaking the harness, and the disarm
// must not leak into later runs.
func TestRunFaultArmsAndDisarms(t *testing.T) {
	defer faultinject.Reset()
	rep, err := run([]string{
		"-duration", "200ms",
		"-clients", "2",
		"-scenario", "cold",
		"-fault", "dse.chunk=error",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("transport errors: %d", rep.Errors)
	}
	if n := rep.ByStatus["200"]; n != 0 {
		t.Errorf("fault-injected cold traffic got %d OKs, want 0", n)
	}
	if rep.ByStatus["400"] == 0 {
		t.Errorf("fault-injected cold traffic produced no 400s: %v", rep.ByStatus)
	}

	// The run's deferred disarm must have fired.
	if err := faultinject.Fire(faultinject.SiteDSEChunk); err != nil {
		t.Fatalf("fault still armed after run: %v", err)
	}

	if _, err := run([]string{"-fault", "x=error", "-url", "http://example.invalid"}, io.Discard); err == nil {
		t.Error("-fault with -url accepted; faults cannot arm a remote process")
	}
}

// TestRunRestartScenario drives the warm-start smoke end to end: cold
// pass computes and spills, warm pass (fresh server, same store dir)
// answers everything from disk byte-identically.
func TestRunRestartScenario(t *testing.T) {
	rep, err := run([]string{
		"-scenario", "restart",
		"-restart-requests", "8",
		"-store-dir", t.TempDir(),
		"-min-store-hit-rate", "0.99",
		"-json",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	rr := rep.Restart
	if rr == nil {
		t.Fatal("restart run produced no restart report")
	}
	if rr.Requests != 8 || rep.Attempts != 16 {
		t.Fatalf("requests = %d, attempts = %d; want 8 driven twice", rr.Requests, rep.Attempts)
	}
	if rr.ByteMismatches != 0 {
		t.Fatalf("warm pass diverged: %d byte mismatches", rr.ByteMismatches)
	}
	if rr.WarmStoreHits != 8 || rr.WarmStoreHitRate != 1 {
		t.Fatalf("warm store hits = %d (rate %v); want all 8 from the store", rr.WarmStoreHits, rr.WarmStoreHitRate)
	}
	if rr.RecoveredArtifacts != 8 {
		t.Fatalf("recovered artifacts = %v, want 8", rr.RecoveredArtifacts)
	}
	if !rep.MetricsOK {
		t.Fatal("warm /metrics did not parse")
	}
	if failures := rep.gateFailures(); len(failures) != 0 {
		t.Fatalf("clean restart run reported failures: %v", failures)
	}

	// Misconfigurations are rejected up front.
	for _, args := range [][]string{
		{"-scenario", "restart,hot"},
		{"-scenario", "restart", "-url", "http://example.invalid"},
		{"-scenario", "restart", "-restart-requests", "0"},
	} {
		if _, err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestRestartURLsDeterministic(t *testing.T) {
	a, b := restartURLs(12), restartURLs(12)
	if len(a) != 12 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("url %d differs across builds: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestReportGates(t *testing.T) {
	r := &report{
		Attempts:    100,
		ShedRate:    0.5,
		Server:      serverSide{QueueWaitP99: 2.0},
		MetricsOK:   true,
		maxShedRate: 0.25,
		maxP99Wait:  time.Second,
	}
	fails := r.gateFailures()
	if len(fails) != 2 {
		t.Fatalf("gateFailures = %v, want shed-rate and p99 violations", fails)
	}
	joined := strings.Join(fails, "; ")
	if !strings.Contains(joined, "shed rate") || !strings.Contains(joined, "p99") {
		t.Errorf("gate messages = %q", joined)
	}

	r.maxShedRate = 1
	r.maxP99Wait = 0
	if fails := r.gateFailures(); len(fails) != 0 {
		t.Errorf("ungated report fails: %v", fails)
	}

	// Restart gates: byte mismatches always fail; the hit-rate gate
	// only when configured.
	r.Restart = &restartReport{Requests: 8, ByteMismatches: 1, WarmStoreHitRate: 0.5}
	if fails := r.gateFailures(); len(fails) != 1 || !strings.Contains(fails[0], "byte") {
		t.Errorf("mismatch gate = %v", fails)
	}
	r.Restart.ByteMismatches = 0
	r.minStoreHitRate = 0.9
	if fails := r.gateFailures(); len(fails) != 1 || !strings.Contains(fails[0], "store-hit rate") {
		t.Errorf("hit-rate gate = %v", fails)
	}
	r.Restart.WarmStoreHitRate = 1
	if fails := r.gateFailures(); len(fails) != 0 {
		t.Errorf("clean restart report fails: %v", fails)
	}
}
