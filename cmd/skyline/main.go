// Command skyline serves the interactive web tool for the F-1 model —
// the reproduction of the paper's Skyline tool (§V). Open the printed
// address, pick a UAV/compute/algorithm (or enter custom Table II
// knobs) and inspect the resulting roofline, bounds and optimization
// tips.
//
// Usage:
//
//	skyline [-addr :8080] [-catalog file.json]
//	        [-max-inflight 4×GOMAXPROCS] [-queue-depth 4×max-inflight]
//	        [-default-timeout 0] [-client-rps 0]
//	        [-max-workers-per-request GOMAXPROCS]
//	        [-store-dir dir] [-store-limit-bytes 1GiB]
//
// -store-dir enables the crash-safe persistent result store (off when
// unset): completed /explore and /grid.svg responses are spilled as
// content-addressed artifacts and repeat requests — including warm
// restarts of the server — are answered from disk instead of the
// engine. -store-limit-bytes bounds the artifact bytes (oldest
// evicted first; 0 = unbounded). Corrupt artifacts are quarantined
// and recomputed; persistent store I/O failure degrades the server to
// recompute-only. See docs/PERSISTENCE.md.
//
// Admission control: -max-inflight caps the concurrently running
// exploration requests (0 disables the limit); excess requests wait in
// a bounded FIFO queue of -queue-depth entries (0 = 4×max-inflight,
// negative = no queue, i.e. shed instantly) until a slot frees or
// their deadline expires. A full queue answers 429 with a Retry-After
// derived from the observed queue depth and service times; an expired
// deadline answers 503. -default-timeout bounds each engine-driven
// request's wall time (0 = none) and callers may ask for less with a
// timeout= query knob ("500ms", "2s", or bare seconds), clamped to the
// server default. -client-rps meters each client (X-API-Key header,
// else remote address) with a token bucket; over-quota clients are
// shed first under saturation. -max-workers-per-request clamps one
// request's workers= knob so a single client cannot monopolize the
// cores.
//
// Under sustained saturation (queue past its high-water mark) an
// unbounded /explore is downgraded to a capped top-K response, flagged
// via the X-Explore-Degraded header.
//
// /healthz reports the admission and store gauges as JSON;
// /metrics exports them in the Prometheus text format (queue
// depth/wait, per-endpoint latency quantiles, shed/panic counters,
// store artifact/hit/quarantine/degraded series).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"

	"repro/internal/catalog"
	"repro/internal/skyline"
	"repro/internal/store"
)

func main() {
	srv, addr, err := setup(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Skyline listening on %s\n", addr)
	log.Fatal(http.ListenAndServe(addr, srv))
}

// setup parses the flags and builds the configured server — everything
// main does short of listening.
func setup(args []string) (*skyline.Server, string, error) {
	fs := flag.NewFlagSet("skyline", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	catalogPath := fs.String("catalog", "", "optional catalog JSON (default: built-in paper catalog)")
	maxInflight := fs.Int("max-inflight", 4*runtime.GOMAXPROCS(0),
		"concurrent exploration requests before new ones queue (0 = unlimited)")
	queueDepth := fs.Int("queue-depth", 0,
		"admission wait-queue bound; excess requests get 429 (0 = 4×max-inflight, negative = no queue)")
	defaultTimeout := fs.Duration("default-timeout", 0,
		"deadline for engine-driven requests and clamp on their timeout= knob (0 = none)")
	clientRPS := fs.Float64("client-rps", 0,
		"per-client token-bucket refill rate, keyed by X-API-Key or remote address (0 = no quotas)")
	maxWorkers := fs.Int("max-workers-per-request", 0,
		"cap on one exploration request's workers= knob (0 = GOMAXPROCS)")
	storeDir := fs.String("store-dir", "",
		"directory for the persistent result store (empty = store disabled)")
	storeLimit := fs.Int64("store-limit-bytes", 1<<30,
		"byte bound on stored artifacts, oldest evicted first (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}

	cat := catalog.Default()
	if *catalogPath != "" {
		f, err := os.Open(*catalogPath)
		if err != nil {
			return nil, "", fmt.Errorf("opening catalog: %w", err)
		}
		cat, err = catalog.Load(f)
		f.Close()
		if err != nil {
			return nil, "", fmt.Errorf("loading catalog: %w", err)
		}
	}
	opt := skyline.Options{
		MaxInflight:          *maxInflight,
		QueueDepth:           *queueDepth,
		DefaultTimeout:       *defaultTimeout,
		ClientRPS:            *clientRPS,
		MaxWorkersPerRequest: *maxWorkers,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeLimit)
		if err != nil {
			return nil, "", fmt.Errorf("opening result store: %w", err)
		}
		opt.Store = st
	}
	return skyline.NewServerWith(cat, opt), *addr, nil
}
