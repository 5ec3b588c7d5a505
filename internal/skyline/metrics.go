package skyline

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the observability surface: per-endpoint latency and
// status accounting, the quantile sampler shared with the admission
// queue's wait-time series, and the /metrics Prometheus text
// exporter. Everything is dependency-free — the text exposition
// format is a few fmt.Fprintf calls, not a client library.

// samplerWindow is the ring size behind each quantile series: big
// enough that a p99 over it is a real tail observation, small enough
// that scrape-time copy+sort stays trivial.
const samplerWindow = 512

// sampler is a fixed-size ring of the most recent observations plus
// lifetime sum/count, sized for scrape-time quantile extraction:
// observe is O(1) under a mutex, quantiles copy and sort the window.
// The zero value is ready to use.
type sampler struct {
	mu    sync.Mutex
	buf   [samplerWindow]float64
	next  int
	n     int // filled entries, ≤ samplerWindow
	count uint64
	sum   float64
}

func (s *sampler) observe(v float64) {
	s.mu.Lock()
	s.buf[s.next] = v
	s.next = (s.next + 1) % samplerWindow
	if s.n < samplerWindow {
		s.n++
	}
	s.count++
	s.sum += v
	s.mu.Unlock()
}

// snapshot returns the lifetime count/sum and the requested quantiles
// over the recent window (empty when nothing has been observed).
func (s *sampler) snapshot(qs []float64) (count uint64, sum float64, quantiles []float64) {
	s.mu.Lock()
	count, sum = s.count, s.sum
	window := make([]float64, s.n)
	copy(window, s.buf[:s.n])
	s.mu.Unlock()
	if len(window) == 0 {
		return count, sum, nil
	}
	sort.Float64s(window)
	quantiles = make([]float64, len(qs))
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(window)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(window) {
			idx = len(window) - 1
		}
		quantiles[i] = window[idx]
	}
	return count, sum, quantiles
}

// latencyQuantiles are the per-series quantile labels exported on
// /metrics.
var latencyQuantiles = []float64{0.5, 0.9, 0.99}

// endpointStats is one route's request accounting.
type endpointStats struct {
	byCode sync.Map // int status code → *atomic.Uint64
	lat    sampler
}

func (e *endpointStats) observe(code int, d time.Duration) {
	c, ok := e.byCode.Load(code)
	if !ok {
		c, _ = e.byCode.LoadOrStore(code, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
	e.lat.observe(d.Seconds())
}

// serverMetrics aggregates everything /metrics exports beyond the
// admitter, compiled-space table and store, which are scraped
// directly.
type serverMetrics struct {
	// endpoints is fixed at construction (one entry per registered
	// route), so lookups after startup are read-only map hits.
	endpoints map[string]*endpointStats
	panics    atomic.Uint64
	// storeExplore/storeFiltered/storeGrid count responses served from
	// the persistent result store, by kind: exact /explore artifact,
	// constraint-filtered superset, and /grid.svg artifact.
	storeExplore  atomic.Uint64
	storeFiltered atomic.Uint64
	storeGrid     atomic.Uint64
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{endpoints: make(map[string]*endpointStats)}
}

// statusWriter records the response status (and whether anything was
// written) so the panic middleware knows if a clean 500 is still
// possible and the metrics layer can label by code. Unwrap keeps
// http.NewResponseController working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// handle registers pattern wrapped in the instrumentation middleware:
// per-endpoint latency/status recording and panic recovery. A
// panicking handler becomes a clean 500 (when the response has not
// started) and a panics_total increment — never a silent dead
// connection, never a dead process.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	st := &endpointStats{}
	s.metrics.endpoints[pattern] = st
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1)
				if !sw.wrote {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			}
			st.observe(sw.status(), time.Since(start))
		}()
		h(sw, r)
	})
}

// handleMetrics serves the Prometheus text exposition format:
// admission-queue gauges and shed counters, the queue-wait and
// per-endpoint latency summaries, panic and degradation counters, and
// the compiled-space and store series — the /healthz numbers plus the
// series only saturation makes interesting.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatValue(v))
	}
	counter := func(name, help string) func(labels string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		return func(labels string, v float64) {
			fmt.Fprintf(&b, "%s%s %s\n", name, labels, formatValue(v))
		}
	}
	summary := func(name, help string, sm *sampler, labels string) {
		count, sum, qv := sm.snapshot(latencyQuantiles)
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		writeSummary(&b, name, labels, count, sum, qv)
	}

	adm := s.adm
	gauge("skyline_queue_depth", "Requests currently waiting for an exploration slot.", float64(adm.depth.Load()))
	gauge("skyline_queue_capacity", "Admission queue bound (0 = no queue).", float64(adm.queueCap))
	gauge("skyline_inflight", "Exploration slots currently held.", float64(adm.active.Load()))
	gauge("skyline_inflight_capacity", "Exploration slot count (0 = unlimited).", float64(adm.capacity))
	gauge("skyline_saturated", "1 while the queue is past its high-water mark (degraded mode).", boolGauge(adm.saturated()))
	gauge("skyline_quota_clients", "Clients currently tracked by the quota table.", float64(adm.quotas.clients()))

	shed := counter("skyline_shed_total", "Requests shed, by reason.")
	shed(`{reason="queue_full"}`, float64(adm.shedQueueFull.Load()))
	shed(`{reason="over_quota"}`, float64(adm.shedOverQuota.Load()))
	shed(`{reason="deadline"}`, float64(adm.shedDeadline.Load()))

	counter("skyline_admitted_total", "Requests granted an exploration slot.")("", float64(adm.granted.Load()))
	counter("skyline_queued_admitted_total", "Admitted requests that waited in the queue first.")("", float64(adm.queuedGrants.Load()))
	counter("skyline_degraded_total", "Explore responses downgraded to capped top-K under saturation.")("", float64(adm.degradedTotal.Load()))
	counter("skyline_panics_total", "Handler panics recovered into 500s.")("", float64(s.metrics.panics.Load()))

	summary("skyline_queue_wait_seconds", "Time admitted requests spent queued.", &adm.queueWait, "")

	gauge("skyline_compiled_spaces", "Compiled /explore design spaces resident in the server's table.", float64(s.spaces.len()))
	counter("skyline_compiled_space_hits_total", "Engine-run /explore requests whose design space was already compiled.")("", float64(s.spaces.hits.Load()))
	counter("skyline_compiled_space_misses_total", "Engine-run /explore requests that compiled their design space.")("", float64(s.spaces.misses.Load()))

	if s.store != nil {
		ss := s.store.Stats()
		gauge("skyline_store_artifacts", "Artifacts indexed in the persistent result store.", float64(ss.Artifacts))
		gauge("skyline_store_bytes", "Bytes of indexed store artifacts.", float64(ss.Bytes))
		gauge("skyline_store_limit_bytes", "Store byte bound (0 = unbounded).", float64(ss.LimitBytes))
		gauge("skyline_store_degraded", "1 while the store is in its recompute-only cooldown window.", boolGauge(ss.Degraded))
		gauge("skyline_store_recovered_artifacts", "Artifacts the startup recovery scan accepted.", float64(ss.RecoveredArtifacts))
		gauge("skyline_store_discarded_temp", "Torn temp files the startup scan deleted.", float64(ss.DiscardedTemp))
		sl := counter("skyline_store_lookups_total", "Store lookups, by outcome (a degraded-mode lookup is a miss).")
		sl(`{outcome="hit"}`, float64(ss.Hits))
		sl(`{outcome="miss"}`, float64(ss.Misses))
		sv := counter("skyline_store_served_total", "Responses served from the store, by kind.")
		sv(`{kind="explore"}`, float64(s.metrics.storeExplore.Load()))
		sv(`{kind="explore_filtered"}`, float64(s.metrics.storeFiltered.Load()))
		sv(`{kind="grid"}`, float64(s.metrics.storeGrid.Load()))
		counter("skyline_store_spills_total", "Completed responses written as store artifacts.")("", float64(ss.Puts))
		counter("skyline_store_quarantined_total", "Artifacts that failed verification and were moved aside.")("", float64(ss.Quarantined))
		se := counter("skyline_store_errors_total", "Store operations abandoned after their retry budget, by op.")
		se(`{op="read"}`, float64(ss.ReadErrors))
		se(`{op="write"}`, float64(ss.WriteErrors))
		counter("skyline_store_evictions_total", "Store artifacts evicted past the byte bound.")("", float64(ss.Evictions))
		counter("skyline_store_degraded_trips_total", "Times the store tripped into the degraded state.")("", float64(ss.DegradedTrips))
	}

	// Per-endpoint series, deterministically ordered for scrape diffs.
	patterns := make([]string, 0, len(s.metrics.endpoints))
	//reprolint:ordered patterns are sorted below before any series is emitted
	for p := range s.metrics.endpoints {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	req := counter("skyline_requests_total", "HTTP requests served, by endpoint and status code.")
	for _, p := range patterns {
		st := s.metrics.endpoints[p]
		type codeCount struct {
			code int
			n    uint64
		}
		var codes []codeCount
		st.byCode.Range(func(k, v any) bool {
			codes = append(codes, codeCount{k.(int), v.(*atomic.Uint64).Load()})
			return true
		})
		sort.Slice(codes, func(i, j int) bool { return codes[i].code < codes[j].code })
		for _, c := range codes {
			req(fmt.Sprintf(`{endpoint=%q,code="%d"}`, p, c.code), float64(c.n))
		}
	}
	fmt.Fprintf(&b, "# HELP skyline_request_duration_seconds Request latency by endpoint.\n# TYPE skyline_request_duration_seconds summary\n")
	for _, p := range patterns {
		count, sum, qv := s.metrics.endpoints[p].lat.snapshot(latencyQuantiles)
		writeSummary(&b, "skyline_request_duration_seconds", fmt.Sprintf("endpoint=%q", p), count, sum, qv)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// writeSummary emits one summary series: quantile samples (when any
// observations exist) plus _sum and _count. labels is the inner label
// list without braces ("" for none).
func writeSummary(b *strings.Builder, name, labels string, count uint64, sum float64, qv []float64) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, q := range latencyQuantiles {
		if qv == nil {
			break
		}
		fmt.Fprintf(b, "%s{%s%squantile=\"%s\"} %s\n", name, labels, sep, formatValue(q), formatValue(qv[i]))
	}
	brace := ""
	if labels != "" {
		brace = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, brace, formatValue(sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, brace, count)
}

// formatValue renders a sample value in the exposition format's
// number syntax (shortest round-trippable float).
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strings.TrimSuffix(fmt.Sprintf("%g", v), ".0")
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
