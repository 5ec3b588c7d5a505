package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/skyline"
	"repro/internal/store"
)

// setupRuns is how many times a measured run sets the server up; the
// last set-up serves the timed window, and setup_s is their median.
const setupRuns = 5

// drive runs the workload's loop on base for d (closed loop, requests
// from index first on) or over sched (open loop).
func drive(c *http.Client, base string, w *workload, first int, sched []arrival, d time.Duration, after afterFunc) ([]sample, time.Duration, int) {
	if w.rate > 0 {
		s, el := openLoop(c, base, sched, w.clients, after)
		return s, el, first
	}
	return closedLoop(c, base, w, first, d, after)
}

// warmup sends the workload's fixed warm-up, in order, on one
// connection; each response must succeed. hook, when set, sees every
// response body.
func warmup(c *http.Client, base string, w *workload, hook func(request, []byte) error) error {
	rc := newRunClient(hook != nil)
	for _, r := range w.warmup {
		s := rc.do(c, base, r, nil)
		if !s.ok() {
			return fmt.Errorf("warm-up %s: status %d, %v", r.url, s.status, s.err)
		}
		if hook != nil {
			if err := hook(r, rc.body.Bytes()); err != nil {
				return err
			}
		}
	}
	return nil
}

// e2e computes the client-side metrics of checked samples.
func e2e(samples []sample, elapsed time.Duration) (vals map[string]float64, meta map[string]any) {
	var lat, ttfb durations
	byClass := make(map[string]durations)
	// Throughput per quarter of the window shows a growing backlog (on
	// the open loop) or a transient stall, which the whole-window figure
	// hides.
	quarters := make([]float64, 4)
	start := lastEnd(samples).Add(-elapsed)
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			continue
		}
		lat = append(lat, s.latency)
		ttfb = append(ttfb, s.ttfb)
		byClass[s.req.class] = append(byClass[s.req.class], s.latency)
		quarters[min(3, int(4*s.end.Sub(start)/elapsed))] += 4 / elapsed.Seconds()
	}
	p99, q := lat.tail(0.99)
	classes := make(map[string]any)
	for name, d := range byClass {
		tail, tq := d.tail(0.99)
		classes[name] = map[string]any{"samples": len(d), "p50_ms": d.median(), "tail_ms": tail, "tail_percentile": tq}
	}
	vals = map[string]float64{
		"throughput_rps": float64(len(lat)) / elapsed.Seconds(),
		"latency_p50_ms": lat.median(),
		"latency_p99_ms": p99,
		"ttfb_p50_ms":    ttfb.median(),
		"success_ratio":  float64(len(lat)) / float64(max(1, len(samples))),
	}
	meta = map[string]any{
		"samples_latency":         len(lat),
		"samples_ttfb":            len(ttfb),
		"latency_tail_percentile": q,
		"window_s":                elapsed.Seconds(),
		"classes":                 classes,
		"throughput_by_quarter":   quarters,
	}
	return vals, meta
}

// measured is the tracing-off run: the real server as a child process.
func measured(e *env) (outcome, error) {
	w := e.w
	c := newClient(w.clients)
	defer c.CloseIdleConnections()
	var (
		ch     *child
		flags  []string
		setups []float64
	)
	for k := 0; k < setupRuns; k++ {
		if ch != nil {
			ch.stop()
		}
		flags = []string{"-catalog", e.catPath}
		if w.store {
			dir, err := os.MkdirTemp(e.work, "store-")
			if err != nil {
				return outcome{}, err
			}
			flags = append(flags, "-store-dir", dir)
		}
		t0 := time.Now()
		var err error
		if ch, err = startChild(c, e.opt.server, flags); err != nil {
			return outcome{}, err
		}
		if err := warmup(c, ch.base, w, nil); err != nil {
			ch.stop()
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ch.stop()

	// The client's own CPU time is reported beside the server's: on
	// shared cores it is the benchmark's interference with the server.
	pid, self := ch.cmd.Process.Pid, os.Getpid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return outcome{}, err
	}
	self0, err := procCPU(self)
	if err != nil {
		return outcome{}, err
	}
	host0, steal0, err := hostTicks()
	if err != nil {
		return outcome{}, err
	}
	samples, elapsed, _ := drive(c, ch.base, w, 0, w.schedule, time.Duration(e.opt.seconds)*time.Second, nil)
	host1, steal1, err := hostTicks()
	if err != nil {
		return outcome{}, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return outcome{}, err
	}
	self1, err := procCPU(self)
	if err != nil {
		return outcome{}, err
	}
	rss, err := ch.peakRSS()
	if err != nil {
		return outcome{}, err
	}
	ch.stop()

	v, err := e.refs.checkSamples(samples)
	if err != nil {
		return outcome{}, err
	}
	vals, meta := e2e(samples, elapsed)
	vals["setup_s"] = medianOf(setups)
	vals["rss_peak_mb"] = rss
	vals["cpu_ms_per_req"] = msOf(cpu1-cpu0) / float64(max(1, v.attempted-v.failed))
	meta["client_cpu_ms_per_req"] = msOf(self1-self0) / float64(max(1, v.attempted-v.failed))
	// Time the hypervisor gave other guests: a run with a large share
	// was measured on a loaded host, not on slower code.
	meta["host_steal_share"] = ratio(float64(steal1-steal0), float64(host1-host0))
	meta["samples_setup"] = setupRuns
	for i, f := range flags {
		if rel, err := filepath.Rel(e.root, f); err == nil && filepath.IsAbs(f) {
			flags[i] = rel
		}
	}
	meta["server_flags"] = "-addr 127.0.0.1:<free port> " + strings.Join(flags, " ")
	return outcome{values: vals, v: v, meta: meta}, nil
}

// splitSchedule cuts an open-loop schedule at d, rebasing the second
// half to start at zero.
func splitSchedule(sched []arrival, d time.Duration) (first, second []arrival) {
	k := 0
	for k < len(sched) && sched[k].at < d {
		k++
	}
	for _, a := range sched[k:] {
		second = append(second, arrival{at: a.at - d, req: a.req})
	}
	return sched[:k], second
}

// timeMedian runs f n times and returns the median time in ms.
func timeMedian(n int, f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, msOf(time.Since(t0)))
	}
	return medianOf(ts), nil
}

// traced is the per-layer run. The server runs in-process with the
// options cmd/skyline defaults to, over a cache and store the benchmark
// constructs; the first half of the window is driven with tracing off,
// the second with every response's layer calls replayed under spans.
func traced(e *env) (outcome, error) {
	w := e.w
	vals := make(map[string]float64)
	var err error
	if vals["catalog.load_ms"], err = timeMedian(5, func() error { _, err := loadCatalog(e.catPath); return err }); err != nil {
		return outcome{}, err
	}
	vals["catalog.fingerprint_ms"], _ = timeMedian(5, func() error { _ = e.cat.Fingerprint(); return nil })

	var stSrv, stTwin *store.Store
	var twinDir string
	if w.store {
		dirs := make([]string, 2)
		for i := range dirs {
			if dirs[i], err = os.MkdirTemp(e.work, "store-"); err != nil {
				return outcome{}, err
			}
		}
		if stSrv, err = store.Open(dirs[0], 1<<30); err != nil {
			return outcome{}, err
		}
		if stTwin, err = store.Open(dirs[1], 1<<30); err != nil {
			return outcome{}, err
		}
		twinDir = dirs[1]
	}
	cache := core.NewCache()
	srv := skyline.NewServerWith(e.cat, skyline.Options{
		MaxInflight: 4 * runtime.GOMAXPROCS(0),
		Cache:       cache,
		Store:       stSrv,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return outcome{}, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed after Close
		close(served)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	c := newClient(w.clients)
	defer c.CloseIdleConnections()

	ctx := context.Background()
	rp := &replayer{cat: e.cat, cache: core.NewCache(), st: stTwin, workers: runtime.GOMAXPROCS(0)}
	t0 := time.Now()
	if err := warmup(c, base, w, func(r request, body []byte) error {
		_, err := rp.replay(ctx, t0, -1, r, body)
		return err
	}); err != nil {
		return outcome{}, err
	}

	h0, err := healthz(c, base)
	if err != nil {
		return outcome{}, err
	}
	m0, err := scrapeMetrics(c, base)
	if err != nil {
		return outcome{}, err
	}
	half := time.Duration(e.opt.seconds) * time.Second / 2
	sched1, sched2 := splitSchedule(w.schedule, half)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	seg1, el1, next := drive(c, base, w, 0, sched1, half, nil)
	runtime.ReadMemStats(&ms1)

	log := &spanLog{}
	var (
		seq     atomic.Int64
		errOnce sync.Once
		replayE error
	)
	seg2, el2, _ := drive(c, base, w, next, sched2, half, func(s *sample, body []byte) {
		if !s.ok() {
			return
		}
		spans, err := rp.replay(ctx, t0, int(seq.Add(1)), s.req, body)
		if err != nil {
			errOnce.Do(func() { replayE = fmt.Errorf("replaying %s: %w", s.req.url, err) })
			return
		}
		log.add(spans, s.service)
	})
	if replayE != nil {
		return outcome{}, replayE
	}
	h1, err := healthz(c, base)
	if err != nil {
		return outcome{}, err
	}
	m1, err := scrapeMetrics(c, base)
	if err != nil {
		return outcome{}, err
	}

	all := append(append([]sample(nil), seg1...), seg2...)
	v, err := e.refs.checkSamples(all)
	if err != nil {
		return outcome{}, err
	}
	n := float64(max(1, len(all)))
	var bytes, okN float64
	var lags durations
	for i := range all {
		if all[i].ok() {
			bytes += float64(all[i].bytes)
			okN++
		}
		lags = append(lags, all[i].lag)
	}
	service := func(ss []sample) float64 {
		var d durations
		for i := range ss {
			if ss[i].ok() {
				d = append(d, ss[i].service)
			}
		}
		return d.median()
	}

	vals["skyline.serve_residual_ms"] = medianOf(log.residual)
	vals["skyline.residual_share"] = medianOf(log.share)
	vals["skyline.parse_us"] = medianOf(log.values("skyline.parse", time.Microsecond, false))
	vals["skyline.bytes_per_req"] = bytes / max(1, okN)
	vals["skyline.queue_wait_p99_ms"] = m1[`skyline_queue_wait_seconds{quantile="0.99"}`] * 1000
	vals["skyline.sheds"] = 0
	for _, r := range []string{"queue_full", "over_quota", "deadline"} {
		k := `skyline_shed_total{reason="` + r + `"}`
		vals["skyline.sheds"] += m1[k] - m0[k]
	}
	vals["dse.explore_ms"] = medianOf(log.values("dse.explore", time.Millisecond, false))
	vals["dse.ns_per_candidate"] = medianOf(log.values("dse.explore", time.Nanosecond, true))
	vals["dse.parallel_speedup"] = medianOf(log.speedups())
	vals["dse.objective_eval_us"] = medianOf(log.values("dse.objective_eval", time.Microsecond, true))
	vals["dse.select_us"] = medianOf(log.values("dse.select", time.Microsecond, false))
	vals["dse.gridsweep_ms"] = medianOf(log.values("dse.gridsweep", time.Millisecond, false))
	vals["plot.svg_us"] = medianOf(log.values("plot.svg", time.Microsecond, false))

	dc := func(a, b uint64) float64 { return float64(b - a) }
	hits, misses := dc(h0.Cache.Hits, h1.Cache.Hits), dc(h0.Cache.Misses, h1.Cache.Misses)
	vals["core.cache_hit_ratio"] = ratio(hits, hits+misses)
	vals["core.cache_fills"] = dc(h0.Cache.Fills, h1.Cache.Fills) / n
	vals["core.cache_evictions"] = dc(h0.Cache.Evictions, h1.Cache.Evictions) / n
	vals["core.cache_probe_ns"] = medianOf(log.values("core.cache_probe", time.Nanosecond, true))
	vals["core.analyze_ns"] = medianOf(log.values("core.analyze", time.Nanosecond, true))

	vals["store.get_us"] = medianOf(log.values("store.get", time.Microsecond, false))
	vals["store.put_ms"] = medianOf(log.values("store.put", time.Millisecond, false))
	for _, k := range []string{"store.hit_ratio", "store.filtered_share", "store.open_ms", "store.quarantined", "store.read_errors", "store.write_errors"} {
		vals[k] = 0
	}
	if h0.Store != nil && h1.Store != nil {
		sh, sm := dc(h0.Store.Hits, h1.Store.Hits), dc(h0.Store.Misses, h1.Store.Misses)
		vals["store.hit_ratio"] = ratio(sh, sh+sm)
		k := `skyline_store_served_total{kind="explore_filtered"}`
		vals["store.filtered_share"] = (m1[k] - m0[k]) / n
		vals["store.quarantined"] = float64(h1.Store.Quarantined)
		vals["store.read_errors"] = float64(h1.Store.ReadErrors)
		vals["store.write_errors"] = float64(h1.Store.WriteErrors)
		// Re-opening the populated twin store prices the recovery scan
		// a restarted server pays.
		if vals["store.open_ms"], err = timeMedian(3, func() error { _, err := store.Open(twinDir, 1<<30); return err }); err != nil {
			return outcome{}, err
		}
	}

	seg1N := float64(max(1, len(seg1)))
	vals["go.alloc_kb_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / seg1N
	vals["go.gc_cycles_per_req"] = float64(ms1.NumGC-ms0.NumGC) / seg1N
	vals["loadgen.lag_p99_ms"] = 0
	if w.rate > 0 {
		vals["loadgen.lag_p99_ms"], _ = lags.tail(0.99)
	}
	vals["trace.overhead_ratio"] = ratio(service(seg2), service(seg1))

	dump := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, e.opt.seed))
	if err := writeDump(filepath.Join(e.root, dump), e, log); err != nil {
		return outcome{}, err
	}
	meta := map[string]any{
		"samples_untraced": len(seg1),
		"samples_traced":   len(seg2),
		"window_s":         (el1 + el2).Seconds(),
		"replayed":         len(log.residual),
		"spans":            len(log.spans),
		"trace_dump":       dump,
		"server":           fmt.Sprintf("in-process skyline.NewServerWith(MaxInflight %d, own cache, store %v)", 4*runtime.GOMAXPROCS(0), w.store),
	}
	return outcome{values: vals, v: v, meta: meta}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeDump writes the traced run's spans, with self times, at the end
// of the run.
func writeDump(path string, e *env, log *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{
		"workload":    e.opt.workload,
		"seed":        e.opt.seed,
		"residual_ms": log.residual,
		"spans":       log.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
