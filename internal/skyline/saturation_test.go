package skyline

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
)

// These tests drive the admission queue, quotas, degradation, and
// fault-injection paths under deliberate saturation. They lean on the
// admitter directly where HTTP would add timing slop, and on the full
// server where the wire behavior (status codes, headers, NDJSON) is
// the contract.

func TestAdmitterFIFOOrder(t *testing.T) {
	a := newAdmitter(1, 8, nil)
	first := a.admit(context.Background(), "c0")
	if first.release == nil {
		t.Fatal("first admission did not get the free slot")
	}

	// Queue three waiters in a known order. admit blocks, so each
	// waiter needs a goroutine; deterministic arrival order comes from
	// watching the queue depth climb between launches.
	const n = 3
	order := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := a.admit(context.Background(), fmt.Sprintf("c%d", i+1))
			if res.release == nil {
				t.Errorf("waiter %d shed: %+v", i, res)
				return
			}
			order <- i
			res.release()
		}()
		waitFor(t, func() bool { return a.depth.Load() == int64(i+1) })
	}

	first.release()
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("grant order: got waiter %d before waiter %d", got, want)
		}
		want++
	}
	if q := a.queuedGrants.Load(); q != n {
		t.Errorf("queuedGrants = %d, want %d", q, n)
	}
}

func TestAdmitterQueueBoundAndRetryAfter(t *testing.T) {
	a := newAdmitter(1, 2, nil)
	slot := a.admit(context.Background(), "holder")

	// Teach the EWMA a 10s service time so Retry-After rises above the
	// 1s floor: with 2 queued ahead the estimate is (2+1)*10/1 = 30s.
	a.mu.Lock()
	a.ewmaService = 10
	a.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go a.admit(ctx, "queued")
	}
	waitFor(t, func() bool { return a.depth.Load() == 2 })

	res := a.admit(context.Background(), "overflow")
	if res.status != http.StatusTooManyRequests || res.reason != shedReasonQueueFull {
		t.Fatalf("overflow admission = %+v, want 429 queue_full", res)
	}
	if res.retryAfter != 30 {
		t.Errorf("Retry-After = %d, want 30 (depth 2+1 × 10s EWMA / 1 slot)", res.retryAfter)
	}
	if a.shedQueueFull.Load() != 1 {
		t.Errorf("shedQueueFull = %d, want 1", a.shedQueueFull.Load())
	}
	cancel()
	waitFor(t, func() bool { return a.depth.Load() == 0 })
	slot.release()
}

func TestAdmitterDeadlineExpiryIs503(t *testing.T) {
	a := newAdmitter(1, 4, nil)
	slot := a.admit(context.Background(), "holder")
	defer slot.release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res := a.admit(ctx, "deadliner")
	if res.status != http.StatusServiceUnavailable || res.reason != shedReasonDeadline {
		t.Fatalf("expired waiter = %+v, want 503 deadline", res)
	}
	if a.depth.Load() != 0 {
		t.Errorf("queue depth after expiry = %d, want 0", a.depth.Load())
	}
	if a.shedDeadline.Load() != 1 {
		t.Errorf("shedDeadline = %d, want 1", a.shedDeadline.Load())
	}
}

func TestAdmitterDisconnectWritesNothing(t *testing.T) {
	a := newAdmitter(1, 4, nil)
	slot := a.admit(context.Background(), "holder")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan admitResult, 1)
	go func() { done <- a.admit(ctx, "leaver") }()
	waitFor(t, func() bool { return a.depth.Load() == 1 })
	cancel()
	res := <-done
	if res.status != 0 || res.release != nil {
		t.Fatalf("disconnected waiter = %+v, want the write-nothing zero result", res)
	}

	// The abandoned waiter must not have corrupted the queue: the slot
	// still hands off cleanly.
	go func() { done <- a.admit(context.Background(), "next") }()
	waitFor(t, func() bool { return a.depth.Load() == 1 })
	slot.release()
	res = <-done
	if res.release == nil {
		t.Fatalf("post-disconnect admission = %+v, want a grant", res)
	}
	res.release()
}

// TestAdmitterGrantRacesDisconnect exercises the pass-on path: a slot
// granted to a waiter whose context is already cancelled must be
// forwarded, not leaked. Many iterations make the race window real.
func TestAdmitterGrantRacesDisconnect(t *testing.T) {
	a := newAdmitter(1, 64, nil)
	for i := 0; i < 200; i++ {
		slot := a.admit(context.Background(), "holder")
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan admitResult, 1)
		go func() { done <- a.admit(ctx, "racer") }()
		waitFor(t, func() bool { return a.depth.Load() == 1 })
		// Release and cancel as close to concurrently as possible.
		go slot.release()
		cancel()
		if res := <-done; res.release != nil {
			res.release()
		}
		// Whatever the race outcome, the slot must end up free.
		waitFor(t, func() bool {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.free == 1 && a.head == nil
		})
	}
}

func TestAdmitterOverQuotaShedsFirstUnderSaturation(t *testing.T) {
	quotas := newBuckets(0.001) // one request, then dry for ~17min
	a := newAdmitter(1, 4, quotas)

	// Idle capacity ignores quotas: the same client gets the free slot
	// even after its bucket drains.
	slot := a.admit(context.Background(), "greedy")
	if slot.release == nil {
		t.Fatal("idle-capacity admission failed")
	}

	// Saturated now. The drained client is shed with 429 over_quota
	// while an in-quota client still queues.
	res := a.admit(context.Background(), "greedy")
	if res.status != http.StatusTooManyRequests || res.reason != shedReasonOverQuota {
		t.Fatalf("over-quota admission = %+v, want 429 over_quota", res)
	}
	if res.retryAfter < 1 {
		t.Errorf("over-quota Retry-After = %d, want >= 1", res.retryAfter)
	}

	done := make(chan admitResult, 1)
	go func() { done <- a.admit(context.Background(), "polite") }()
	waitFor(t, func() bool { return a.depth.Load() == 1 })
	slot.release()
	if res := <-done; res.release == nil {
		t.Fatalf("in-quota client shed under saturation: %+v", res)
	} else {
		res.release()
	}
}

// TestSaturationRace floods a 2-slot server with short-deadline
// explorations and mid-queue disconnects while asserting the global
// invariants: depth never exceeds the bound, every response is one of
// {200, 429, 503}, and no goroutines leak. Run under -race this is
// the admission queue's concurrency audit.
func TestSaturationRace(t *testing.T) {
	cat := catalog.Synthetic(6, 12, 12)
	s := NewServerWith(cat, Options{
		MaxInflight:    2,
		QueueDepth:     4,
		DefaultTimeout: 2 * time.Second,
		ClientRPS:      50,
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	var maxDepth int64
	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := s.adm.depth.Load(); d > maxDepth {
				maxDepth = d
			}
			time.Sleep(time.Millisecond)
		}
	}()

	client := srv.Client()
	for i := 0; i < 40; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			url := srv.URL + "/explore?top=3"
			if i%4 == 0 {
				url = srv.URL + "/explore?top=3&timeout=30ms"
			}
			ctx := context.Background()
			if i%5 == 0 {
				// Mid-queue disconnect: cancel the client side shortly
				// after the request is in flight.
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(5+i)*time.Millisecond)
				defer cancel()
			}
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			resp, err := client.Do(req)
			if err != nil {
				return // client-side cancellation; nothing to assert
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			switch resp.StatusCode {
			case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-monitorDone

	if maxDepth > 4 {
		t.Errorf("observed queue depth %d, bound is 4", maxDepth)
	}
	// Every slot must come home and every waiter goroutine must exit.
	waitFor(t, func() bool { return s.adm.active.Load() == 0 && s.adm.depth.Load() == 0 })
	client.CloseIdleConnections()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+8 })
}

func TestExploreDegradedUnderSaturation(t *testing.T) {
	cat := catalog.Synthetic(10, 40, 40)
	s := NewServerWith(cat, Options{MaxInflight: 1, QueueDepth: 2})
	srv := httptest.NewServer(s)
	defer srv.Close()

	stream, done := saturate(t, srv)
	defer done()
	_ = stream

	// Put one waiter in the queue to cross the high-water mark
	// ((2+1)/2 = 1), then watch an unbounded explore degrade.
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	defer cancelWaiter()
	go func() {
		req, _ := http.NewRequestWithContext(waiterCtx, http.MethodGet, srv.URL+"/explore?top=1", nil)
		resp, err := srv.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.adm.saturated() })

	// The degraded request must carry its own deadline-free context but
	// short-circuit: it queues behind the waiter, so give it the last
	// queue slot and release the stream to drain the chain.
	type result struct {
		status   int
		degraded string
		lines    int
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/explore")
		if err != nil {
			resCh <- result{}
			return
		}
		defer resp.Body.Close()
		lines := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				lines++
			}
		}
		resCh <- result{resp.StatusCode, resp.Header.Get("X-Explore-Degraded"), lines}
	}()
	waitFor(t, func() bool { return s.adm.depth.Load() == 2 })
	done() // release the saturating stream; the queue drains FIFO

	res := <-resCh
	if res.status != http.StatusOK {
		t.Fatalf("degraded explore status = %d", res.status)
	}
	if res.degraded == "" {
		t.Fatal("saturated unbounded explore did not set X-Explore-Degraded")
	}
	if res.lines == 0 || res.lines > defaultDegradeTopK {
		t.Fatalf("degraded explore returned %d lines, want 1..%d", res.lines, defaultDegradeTopK)
	}
	if s.adm.degradedTotal.Load() == 0 {
		t.Error("degradedTotal counter did not move")
	}
}

func TestTimeoutKnob(t *testing.T) {
	cat := catalog.Synthetic(10, 40, 40) // big enough that 1ms cannot finish
	s := NewServer(cat)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/explore?top=1&timeout=1ms")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("1ms exploration status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline 503 without Retry-After")
	}

	// Bare seconds parse too, and a generous budget succeeds.
	resp, err = http.Get(srv.URL + "/explore?top=1&timeout=30&uav=synth-uav-000&compute=synth-soc-000&algorithm=synth-net-000")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("30s exploration status = %d", resp.StatusCode)
	}

	for _, bad := range []string{"timeout=0", "timeout=-1s", "timeout=x"} {
		resp, err := http.Get(srv.URL + "/explore?top=1&" + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestLightEndpointsQuotaMetered(t *testing.T) {
	// At 0.001 rps the bucket holds max(1, 2×0.001) = 1 token.
	s := NewServerWith(nil, Options{ClientRPS: 0.001})
	srv := httptest.NewServer(s)
	defer srv.Close()

	get := func(key string) int {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/analyze", nil)
		req.Header.Set("X-API-Key", key)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("a"); got != http.StatusOK {
		t.Fatalf("first analyze = %d", got)
	}
	if got := get("a"); got != http.StatusTooManyRequests {
		t.Fatalf("second analyze = %d, want 429 (bucket drained)", got)
	}
	// Distinct API keys have distinct buckets.
	if got := get("b"); got != http.StatusOK {
		t.Fatalf("other client's analyze = %d, want 200", got)
	}
}

func TestPanicRecoveryMiddleware(t *testing.T) {
	s := NewServer(nil)
	s.handle("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler status = %d, want 500", resp.StatusCode)
	}
	if strings.Contains(string(body), "kaboom") {
		t.Error("panic detail leaked into the response body")
	}
	if s.metrics.panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", s.metrics.panics.Load())
	}
	// The server survives and keeps serving.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	}
}

// TestFaultInjectedChunkErrorSurfaces arms an error fault on the DSE
// chunk path and checks a selection exploration reports it instead of
// succeeding silently.
func TestFaultInjectedChunkErrorSurfaces(t *testing.T) {
	defer faultinject.Reset()
	s := NewServer(nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	faultinject.Enable(faultinject.SiteDSEChunk, faultinject.Fault{Err: errors.New("injected chunk fault")})

	resp, err := http.Get(srv.URL + "/explore?top=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("fault-injected exploration returned 200 with body %q", body)
	}

	faultinject.Reset()
	resp, err = http.Get(srv.URL + "/explore?top=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exploration after Reset = %d, want 200", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := NewServerWith(nil, Options{MaxInflight: 2, ClientRPS: 100})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Generate a little traffic so counters move.
	for _, path := range []string{"/api/analyze", "/explore?top=1", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, series := range []string{
		"skyline_queue_depth 0",
		"skyline_inflight_capacity 2",
		`skyline_shed_total{reason="queue_full"} 0`,
		`skyline_shed_total{reason="over_quota"} 0`,
		`skyline_shed_total{reason="deadline"} 0`,
		"skyline_panics_total 0",
		"skyline_degraded_total 0",
		"skyline_queue_wait_seconds_count 0",
		`skyline_requests_total{endpoint="/api/analyze",code="200"} 1`,
		`skyline_requests_total{endpoint="/explore",code="200"} 1`,
		`skyline_request_duration_seconds{endpoint="/api/analyze",quantile="0.5"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// Basic exposition-format hygiene: every non-comment line is
	// "name{labels} value" with a parseable float value.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed metrics line %q", line)
		}
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
