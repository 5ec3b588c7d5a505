// Command loadgen replays representative Skyline traffic against a
// server and reports what the admission layer did with it. It is the
// saturation smoke harness: point it at a live server with -url, or
// let it spin up an in-process server (the default) shaped by the
// same knobs cmd/skyline exposes, optionally with faults armed in the
// exploration engine.
//
// Usage:
//
//	loadgen [-url http://host:8080] [-duration 5s] [-clients 8]
//	        [-scenario hot,cold,disconnect,burst]
//	        [-fault dse.chunk=error | dse.chunk=panic | site=latency:50ms]
//	        [-max-inflight 2] [-queue-depth 4] [-client-rps 0]
//	        [-default-timeout 0] [-seed 1]
//	        [-max-shed-rate 1] [-max-p99-wait 0] [-json]
//	        [-store-dir dir] [-restart-requests 12] [-min-store-hit-rate 0]
//
// Scenarios (comma-separated; default all):
//
//	hot         repeat a small set of /api/analyze requests — one
//	            F-1 analysis each, no engine work
//	cold        distinct explorations — store misses, real engine work
//	disconnect  open streaming explorations and drop them mid-stream
//	burst       hammer one API key far past any quota
//	restart     warm-start smoke: run a deterministic request list
//	            against an in-process server backed by the persistent
//	            result store, tear the server down, open a fresh one
//	            (new process state, same store dir), replay the list,
//	            and compare every response byte for byte. Must be the
//	            sole scenario; always in-process. -store-dir roots the
//	            store (default: a private temp dir), -restart-requests
//	            sizes the list, and -min-store-hit-rate gates the warm
//	            pass's served-from-store rate (0 = no gate; byte
//	            mismatches always fail). The report records cold/warm
//	            wall times and the warm pass's store hits.
//
// -fault arms an injection site before the run (in-process mode only):
// kinds are error, panic, and latency:<duration>. After the run
// loadgen scrapes /metrics, re-parses the exposition text (a format
// regression fails the run), and folds the server-side shed counters
// and queue-wait quantiles into the report.
//
// Gates: -max-shed-rate bounds sheds/attempts (default 1 = no gate)
// and -max-p99-wait bounds the queue-wait p99 (0 = no gate). A
// violated gate, a transport-level error, or unparseable /metrics
// output exits non-zero — CI fails on a robustness regression, not on
// a human reading a report.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/skyline"
	"repro/internal/store"
)

func main() {
	rep, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if failures := rep.gateFailures(); len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "loadgen: GATE FAILED:", f)
		}
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	url            string
	duration       time.Duration
	clients        int
	scenarios      []string
	faults         []faultSpec
	maxInflight    int
	queueDepth     int
	clientRPS      float64
	defaultTimeout time.Duration
	seed           int64
	maxShedRate    float64
	maxP99Wait     time.Duration
	jsonOut        bool

	// Restart-scenario knobs.
	storeDir        string
	restartRequests int
	minStoreHitRate float64
}

// faultSpec is one -fault entry: a site and the fault to arm there.
type faultSpec struct {
	site  string
	fault faultinject.Fault
}

// parseFaults parses "site=kind[:arg]" entries, comma-separated.
func parseFaults(s string) ([]faultSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []faultSpec
	for _, entry := range strings.Split(s, ",") {
		site, kind, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || site == "" {
			return nil, fmt.Errorf("fault %q: want site=kind", entry)
		}
		var f faultinject.Fault
		switch {
		case kind == "error":
			f.Err = faultinject.ErrInjected
		case kind == "panic":
			f.Panic = true
		case strings.HasPrefix(kind, "latency:"):
			d, err := time.ParseDuration(strings.TrimPrefix(kind, "latency:"))
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("fault %q: bad latency", entry)
			}
			f.Latency = d
		default:
			return nil, fmt.Errorf("fault %q: unknown kind (want error, panic or latency:<dur>)", entry)
		}
		out = append(out, faultSpec{site: site, fault: f})
	}
	return out, nil
}

// serverSide is what the post-run /metrics scrape contributed.
type serverSide struct {
	ShedQueueFull float64 `json:"shed_queue_full"`
	ShedOverQuota float64 `json:"shed_over_quota"`
	ShedDeadline  float64 `json:"shed_deadline"`
	Panics        float64 `json:"panics"`
	Degraded      float64 `json:"degraded"`
	QueueWaitP99  float64 `json:"queue_wait_p99_s"`
}

func (s serverSide) sheds() float64 { return s.ShedQueueFull + s.ShedOverQuota + s.ShedDeadline }

// report is the run summary, printed as text or JSON and gated on.
type report struct {
	DurationS   float64          `json:"duration_s"`
	Scenarios   []string         `json:"scenarios"`
	Attempts    uint64           `json:"attempts"`
	ByStatus    map[string]int64 `json:"by_status"`
	Disconnects uint64           `json:"deliberate_disconnects"`
	Errors      uint64           `json:"transport_errors"`
	ShedRate    float64          `json:"shed_rate"`
	Server      serverSide       `json:"server_metrics"`
	MetricsOK   bool             `json:"metrics_parse_ok"`
	// Restart carries the warm-start phase's results (restart scenario
	// only).
	Restart *restartReport `json:"restart,omitempty"`

	maxShedRate     float64
	maxP99Wait      time.Duration
	minStoreHitRate float64
}

// restartReport is the warm-start smoke summary: the same request list
// driven cold (fresh store) and warm (fresh server over the surviving
// store), with per-response byte comparison.
type restartReport struct {
	Requests int `json:"requests"`
	// ColdS/WarmS are the two passes' wall times; the warm pass answers
	// from disk, so on any real engine workload it is far faster.
	ColdS float64 `json:"cold_s"`
	WarmS float64 `json:"warm_s"`
	// WarmStoreHits counts warm responses carrying X-Explore-Store
	// (exact hits and superset-filtered answers); WarmStoreHitRate is
	// that over Requests.
	WarmStoreHits    int     `json:"warm_store_hits"`
	WarmStoreHitRate float64 `json:"warm_store_hit_rate"`
	// ByteMismatches counts warm responses whose bytes differ from the
	// cold pass — the invariant is zero, gated unconditionally.
	ByteMismatches int `json:"byte_mismatches"`
	// RecoveredArtifacts is the warm server's startup-scan count,
	// scraped from /metrics.
	RecoveredArtifacts float64 `json:"recovered_artifacts"`
}

func (r *report) gateFailures() []string {
	var fails []string
	if r.Errors > 0 {
		fails = append(fails, fmt.Sprintf("%d transport-level errors", r.Errors))
	}
	if !r.MetricsOK {
		fails = append(fails, "/metrics output failed to parse")
	}
	if r.maxShedRate < 1 && r.ShedRate > r.maxShedRate {
		fails = append(fails, fmt.Sprintf("shed rate %.3f > %.3f", r.ShedRate, r.maxShedRate))
	}
	if r.maxP99Wait > 0 && r.Server.QueueWaitP99 > r.maxP99Wait.Seconds() {
		fails = append(fails, fmt.Sprintf("queue-wait p99 %.3fs > %s", r.Server.QueueWaitP99, r.maxP99Wait))
	}
	if r.Restart != nil {
		if r.Restart.ByteMismatches > 0 {
			fails = append(fails, fmt.Sprintf("%d warm responses differ from the cold pass byte for byte", r.Restart.ByteMismatches))
		}
		if r.minStoreHitRate > 0 && r.Restart.WarmStoreHitRate < r.minStoreHitRate {
			fails = append(fails, fmt.Sprintf("warm store-hit rate %.3f < %.3f", r.Restart.WarmStoreHitRate, r.minStoreHitRate))
		}
	}
	return fails
}

func run(args []string, out io.Writer) (*report, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.url, "url", "", "target server base URL (empty = in-process server)")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "how long to drive traffic")
	fs.IntVar(&cfg.clients, "clients", 8, "concurrent request loops")
	scen := fs.String("scenario", "hot,cold,disconnect,burst", "comma-separated scenarios")
	faults := fs.String("fault", "", "arm fault sites before the run: site=error|panic|latency:<dur>, comma-separated (in-process only)")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 2, "in-process server: exploration slots")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 0, "in-process server: admission queue bound (0 = 4×max-inflight)")
	fs.Float64Var(&cfg.clientRPS, "client-rps", 0, "in-process server: per-client quota refill rate")
	fs.DurationVar(&cfg.defaultTimeout, "default-timeout", 0, "in-process server: engine request deadline")
	fs.Int64Var(&cfg.seed, "seed", 1, "traffic-shape random seed")
	fs.Float64Var(&cfg.maxShedRate, "max-shed-rate", 1, "fail when sheds/attempts exceeds this (1 = no gate)")
	fs.DurationVar(&cfg.maxP99Wait, "max-p99-wait", 0, "fail when the queue-wait p99 exceeds this (0 = no gate)")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "restart scenario: persistent store directory (empty = private temp dir)")
	fs.IntVar(&cfg.restartRequests, "restart-requests", 12, "restart scenario: deterministic request-list length")
	fs.Float64Var(&cfg.minStoreHitRate, "min-store-hit-rate", 0, "restart scenario: fail when the warm pass's store-hit rate is below this (0 = no gate)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	for _, s := range strings.Split(*scen, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.scenarios = append(cfg.scenarios, s)
		}
	}
	if len(cfg.scenarios) == 0 {
		return nil, fmt.Errorf("no scenarios selected")
	}
	for _, s := range cfg.scenarios {
		switch s {
		case "hot", "cold", "disconnect", "burst":
		case "restart":
			// The restart scenario owns both server generations, so it
			// cannot share a run with duration-driven traffic or target a
			// remote server it cannot restart.
			if len(cfg.scenarios) != 1 {
				return nil, fmt.Errorf("scenario restart must be the sole scenario")
			}
			if cfg.url != "" {
				return nil, fmt.Errorf("scenario restart requires the in-process server (-url unsupported)")
			}
			if cfg.restartRequests < 1 {
				return nil, fmt.Errorf("-restart-requests must be positive, got %d", cfg.restartRequests)
			}
		default:
			return nil, fmt.Errorf("unknown scenario %q (want hot, cold, disconnect, burst or restart)", s)
		}
	}
	var err error
	if cfg.faults, err = parseFaults(*faults); err != nil {
		return nil, err
	}
	if len(cfg.faults) > 0 && cfg.url != "" {
		return nil, fmt.Errorf("-fault requires the in-process server (faults arm this process, not a remote one)")
	}

	for _, f := range cfg.faults {
		defer faultinject.Enable(f.site, f.fault)()
	}

	var rep *report
	if cfg.scenarios[0] == "restart" {
		if rep, err = driveRestart(cfg); err != nil {
			return nil, err
		}
	} else {
		base := cfg.url
		if base == "" {
			srv := httptest.NewServer(skyline.NewServerWith(catalog.Synthetic(8, 16, 16), skyline.Options{
				MaxInflight:    cfg.maxInflight,
				QueueDepth:     cfg.queueDepth,
				ClientRPS:      cfg.clientRPS,
				DefaultTimeout: cfg.defaultTimeout,
			}))
			defer srv.Close()
			base = srv.URL
		}
		rep = drive(cfg, base)
	}
	rep.minStoreHitRate = cfg.minStoreHitRate
	rep.maxShedRate = cfg.maxShedRate
	rep.maxP99Wait = cfg.maxP99Wait

	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return nil, err
		}
	} else {
		printReport(out, rep)
	}
	return rep, nil
}

// drive runs the scenario loops for the configured duration, then
// scrapes /metrics.
func drive(cfg config, base string) *report {
	rep := &report{Scenarios: cfg.scenarios, ByStatus: map[string]int64{}}
	var (
		mu          sync.Mutex
		byStatus    = map[int]int64{}
		attempts    atomic.Uint64
		disconnects atomic.Uint64
		errs        atomic.Uint64
	)
	client := &http.Client{Timeout: 30 * time.Second}
	record := func(code int) {
		mu.Lock()
		byStatus[code]++
		mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
			for i := 0; ctx.Err() == nil; i++ {
				attempts.Add(1)
				switch cfg.scenarios[i%len(cfg.scenarios)] {
				case "hot":
					// A small hot set of page analyses.
					n := rng.Intn(4)
					u := fmt.Sprintf("%s/api/analyze?uav=synth-uav-%03d&compute=synth-soc-%03d&algorithm=synth-net-%03d", base, n, n, n)
					doGet(ctx, client, u, "", record, &errs)
				case "cold":
					// Distinct constraint values defeat repetition and run
					// the engine; a short top-K bounds each response.
					u := fmt.Sprintf("%s/explore?top=3&min_velocity_ms=%.4f", base, rng.Float64()*2)
					doGet(ctx, client, u, "", record, &errs)
				case "disconnect":
					// Open an unbounded stream and walk away mid-body.
					disconnects.Add(1)
					dctx, dcancel := context.WithCancel(ctx)
					req, _ := http.NewRequestWithContext(dctx, http.MethodGet, base+"/explore", nil)
					resp, err := client.Do(req)
					if err != nil {
						dcancel()
						if ctx.Err() == nil {
							errs.Add(1)
						}
						continue
					}
					buf := make([]byte, 256)
					resp.Body.Read(buf) // first bytes, then vanish
					record(resp.StatusCode)
					dcancel()
					resp.Body.Close()
				case "burst":
					// One key fires a tight burst — the quota target.
					u := fmt.Sprintf("%s/api/analyze?uav=synth-uav-000&compute=synth-soc-001&algorithm=synth-net-%03d", base, rng.Intn(8))
					doGet(ctx, client, u, "burst-key", record, &errs)
				}
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	rep.DurationS = time.Since(start).Seconds()
	rep.Attempts = attempts.Load()
	rep.Disconnects = disconnects.Load()
	rep.Errors = errs.Load()
	for code, n := range byStatus {
		rep.ByStatus[strconv.Itoa(code)] = n
	}

	// Scrape and re-parse /metrics: the exposition format is part of
	// the server's contract, so a parse failure fails the run.
	samples, err := scrapeMetrics(client, base+"/metrics")
	if err == nil {
		rep.MetricsOK = true
		rep.Server = serverSide{
			ShedQueueFull: samples[`skyline_shed_total{reason="queue_full"}`],
			ShedOverQuota: samples[`skyline_shed_total{reason="over_quota"}`],
			ShedDeadline:  samples[`skyline_shed_total{reason="deadline"}`],
			Panics:        samples["skyline_panics_total"],
			Degraded:      samples["skyline_degraded_total"],
			QueueWaitP99:  samples[`skyline_queue_wait_seconds{quantile="0.99"}`],
		}
	}
	if rep.Attempts > 0 {
		rep.ShedRate = rep.Server.sheds() / float64(rep.Attempts)
	}
	return rep
}

// restartURLs builds the restart scenario's deterministic request
// list: a rotation of streaming, top-K and Pareto explorations plus
// grid renders, each over a small named slice of the synthetic catalog
// (the synthetic component names are spelled out because the preset
// defaults do not exist there). The list depends only on n, so the
// cold and warm passes replay identical requests.
func restartURLs(n int) []string {
	urls := make([]string, 0, n)
	for i := 0; len(urls) < n; i++ {
		uav := fmt.Sprintf("synth-uav-%03d", i%8)
		soc := fmt.Sprintf("synth-soc-%03d", i%16)
		net := fmt.Sprintf("synth-net-%03d", i%16)
		space := fmt.Sprintf("uav=%s&compute=%s", uav, soc)
		switch i % 4 {
		case 0:
			urls = append(urls, "/explore?"+space) // streaming NDJSON
		case 1:
			urls = append(urls, "/explore?"+space+"&top=5")
		case 2:
			urls = append(urls, "/explore?"+space+"&pareto=velocity,power")
		case 3:
			urls = append(urls, fmt.Sprintf("/grid.svg?uav=%s&compute=%s&algorithm=%s&x=payload&y=range&xlo=0&xhi=300&ylo=4&yhi=20&nx=6&ny=5", uav, soc, net))
		}
	}
	return urls
}

// driveRestart runs the warm-start smoke: the request list against a
// store-backed server (cold), then — after tearing that server down —
// against a fresh server over the same store directory (warm), with
// every response compared byte for byte via its digest.
func driveRestart(cfg config) (*report, error) {
	dir := cfg.storeDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "loadgen-store-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	// Each generation gets fresh in-process state — a new server and a
	// newly opened store — exactly like a process restart.
	newServer := func() (*httptest.Server, error) {
		st, err := store.Open(dir, 0)
		if err != nil {
			return nil, err
		}
		return httptest.NewServer(skyline.NewServerWith(catalog.Synthetic(8, 16, 16), skyline.Options{
			Store:          st,
			MaxInflight:    cfg.maxInflight,
			QueueDepth:     cfg.queueDepth,
			DefaultTimeout: cfg.defaultTimeout,
		})), nil
	}
	urls := restartURLs(cfg.restartRequests)
	client := &http.Client{Timeout: 30 * time.Second}
	rep := &report{Scenarios: cfg.scenarios, ByStatus: map[string]int64{}}
	rr := &restartReport{Requests: len(urls)}
	rep.Restart = rr

	pass := func(base string, digests []string) (out []string, hits int, elapsed float64, err error) {
		start := time.Now()
		for i, u := range urls {
			resp, err := client.Get(base + u)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("GET %s: %w", u, err)
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				return nil, 0, 0, fmt.Errorf("GET %s: %w", u, rerr)
			}
			rep.Attempts++
			rep.ByStatus[strconv.Itoa(resp.StatusCode)]++
			if resp.StatusCode != http.StatusOK {
				rep.Errors++
				continue
			}
			if resp.Header.Get("X-Explore-Store") != "" {
				hits++
			}
			sum := sha256.Sum256(body)
			d := hex.EncodeToString(sum[:])
			out = append(out, d)
			if digests != nil && i < len(digests) && digests[i] != d {
				rr.ByteMismatches++
			}
		}
		return out, hits, time.Since(start).Seconds(), nil
	}

	cold, err := newServer()
	if err != nil {
		return nil, err
	}
	digests, _, coldS, err := pass(cold.URL, nil)
	cold.Close()
	if err != nil {
		return nil, err
	}
	rr.ColdS = coldS

	warm, err := newServer()
	if err != nil {
		return nil, err
	}
	defer warm.Close()
	_, hits, warmS, err := pass(warm.URL, digests)
	if err != nil {
		return nil, err
	}
	rr.WarmS = warmS
	rr.WarmStoreHits = hits
	rr.WarmStoreHitRate = float64(hits) / float64(len(urls))
	rep.DurationS = coldS + warmS

	samples, err := scrapeMetrics(client, warm.URL+"/metrics")
	if err == nil {
		rep.MetricsOK = true
		rr.RecoveredArtifacts = samples["skyline_store_recovered_artifacts"]
	}
	return rep, nil
}

func doGet(ctx context.Context, client *http.Client, url, apiKey string, record func(int), errs *atomic.Uint64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		errs.Add(1)
		return
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		// Hitting the run deadline mid-request is the harness stopping,
		// not the server failing.
		if ctx.Err() == nil {
			errs.Add(1)
		}
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	record(resp.StatusCode)
}

// scrapeMetrics fetches and parses a Prometheus text page into
// "name{labels}" → value samples, rejecting malformed lines.
func scrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body))
}

// parseMetrics parses the exposition text: "# ..." comments and
// "name{labels} value" samples; anything else is an error.
func parseMetrics(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		name, val := line[:idx], line[idx+1:]
		if strings.Contains(name, " ") || strings.Contains(name, "\t") {
			return nil, fmt.Errorf("metrics line %q: malformed series name", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: bad value: %v", line, err)
		}
		out[name] = v
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in metrics output")
	}
	return out, nil
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "loadgen: %d attempts over %.1fs (%s)\n", r.Attempts, r.DurationS, strings.Join(r.Scenarios, ","))
	for code, n := range r.ByStatus {
		fmt.Fprintf(w, "  status %s: %d\n", code, n)
	}
	fmt.Fprintf(w, "  deliberate disconnects: %d, transport errors: %d\n", r.Disconnects, r.Errors)
	fmt.Fprintf(w, "  server sheds: queue_full=%.0f over_quota=%.0f deadline=%.0f (rate %.3f)\n",
		r.Server.ShedQueueFull, r.Server.ShedOverQuota, r.Server.ShedDeadline, r.ShedRate)
	fmt.Fprintf(w, "  queue-wait p99: %.4fs, panics: %.0f, degraded: %.0f, metrics parse: %v\n",
		r.Server.QueueWaitP99, r.Server.Panics, r.Server.Degraded, r.MetricsOK)
	if rr := r.Restart; rr != nil {
		fmt.Fprintf(w, "  restart: %d requests, cold %.2fs -> warm %.2fs\n", rr.Requests, rr.ColdS, rr.WarmS)
		fmt.Fprintf(w, "  restart: warm store hits %d/%d (rate %.3f), byte mismatches %d, recovered artifacts %.0f\n",
			rr.WarmStoreHits, rr.Requests, rr.WarmStoreHitRate, rr.ByteMismatches, rr.RecoveredArtifacts)
	}
}
