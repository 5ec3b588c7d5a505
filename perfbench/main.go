// Command perfbench is the Skyline end-to-end benchmark. It drives one
// workload against the real cmd/skyline server, started as a child
// process over a generated 2048-candidate catalog, checks every
// response byte for byte against an in-process serial reference, and
// prints the end-to-end metrics; with --trace 1 it instead runs the
// server in-process, replays each request's layer calls with spans
// around them, and prints the per-layer metrics. The metrics, the
// workloads and their reasons are listed in BENCHMARK.json and
// perfbench/LAYERS.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload explore-stream --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it holds the
// run's metadata.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/catalog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a client of the server sees, reported with
// tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ttfb_p50_ms", "ms"},
	{"success_ratio", "ratio"},
	{"rss_peak_mb", "MiB"},
	{"cpu_ms_per_req", "ms"},
}

// perLayer are the traced run's metrics, one or more per layer. A layer
// a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"skyline.serve_residual_ms", "ms"},
	{"skyline.residual_share", "ratio"},
	{"skyline.parse_us", "us"},
	{"skyline.bytes_per_req", "B"},
	{"skyline.queue_wait_p99_ms", "ms"},
	{"skyline.sheds", "count"},
	{"dse.explore_ms", "ms"},
	{"dse.ns_per_candidate", "ns"},
	{"dse.parallel_speedup", "ratio"},
	{"dse.objective_eval_us", "us"},
	{"dse.select_us", "us"},
	{"dse.gridsweep_ms", "ms"},
	{"plot.svg_us", "us"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.cache_fills", "count/req"},
	{"core.cache_evictions", "count/req"},
	{"core.cache_probe_ns", "ns"},
	{"core.analyze_ns", "ns"},
	{"store.get_us", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.filtered_share", "ratio"},
	{"store.put_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.quarantined", "count"},
	{"store.read_errors", "count"},
	{"store.write_errors", "count"},
	{"catalog.load_ms", "ms"},
	{"catalog.fingerprint_ms", "ms"},
	{"go.alloc_kb_per_req", "KiB"},
	{"go.gc_cycles_per_req", "count/req"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// options are the command's arguments.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the server sees only the requests generated from it")
	fs.IntVar(&o.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = the in-process traced run, reporting per-layer metrics")
	fs.StringVar(&o.server, "server", "", "path to the built cmd/skyline binary")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	switch {
	case o.server == "":
		return o, fmt.Errorf("-server is required")
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// env is one run's shared state.
type env struct {
	opt     options
	w       *workload
	root    string // the checkout the benchmark runs from
	work    string // this run's working directory, removed at the end
	catPath string
	cat     *catalog.Catalog
	refs    *refs
}

// outcome is what a mode hands back for printing.
type outcome struct {
	values map[string]float64
	v      verdict
	meta   map[string]any
}

func run(args []string, stdout io.Writer) error {
	opt, err := parseOptions(args)
	if err != nil {
		return err
	}
	w, err := newWorkload(opt.workload, opt.seed, float64(opt.seconds))
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{opt: opt, w: w, root: root, work: work, catPath: filepath.Join(work, "catalog.json")}
	if e.cat, err = writeCatalog(e.catPath); err != nil {
		return err
	}
	e.refs = newRefs(e.cat)
	if err := e.refs.ensure(w.known); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "contracts-")
	if err != nil {
		return err
	}
	contractsOK := true
	if err := e.refs.checkContracts(e.cat, contractSample(w), dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: contract check failed:", err)
		contractsOK = false
	}

	var out outcome
	specs := endToEnd
	if opt.trace {
		specs = perLayer
		out, err = traced(e)
	} else {
		out, err = measured(e)
	}
	if err != nil {
		return err
	}
	metrics := make(map[string]map[string]any, len(specs))
	for _, m := range specs {
		v, ok := out.values[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if len(out.values) != len(specs) {
		return fmt.Errorf("measured %d metrics, expected %d", len(out.values), len(specs))
	}

	meta := map[string]any{
		"workload":      opt.workload,
		"seed":          opt.seed,
		"seconds":       opt.seconds,
		"trace":         opt.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit(root),
		"source_sha256": sourceDigest(root),
		"checked":       out.v.checked,
		"mismatched":    out.v.mismatched,
		"contracts_ok":  contractsOK,
	}
	if w.rate > 0 {
		meta["loop"] = fmt.Sprintf("open, %g req/s over %d connections", w.rate, w.clients)
	} else {
		meta["loop"] = fmt.Sprintf("closed, %d clients", w.clients)
	}
	for k, v := range out.meta {
		meta[k] = v
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   contractsOK && out.v.mismatched == 0 && out.v.checked > 0,
		"attempted": out.v.attempted,
		"failed":    out.v.failed,
		"metrics":   metrics,
	})
}

// writeCatalog saves the benchmark catalog where the server can load it
// and loads it back the same way, so both sides see identical state.
func writeCatalog(path string) (*catalog.Catalog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := catalog.SyntheticAlgoHeavy(nUAVs, nComputes, nAlgos).Save(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("saving catalog: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return loadCatalog(path)
}

func loadCatalog(path string) (*catalog.Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cat, err := catalog.Load(f)
	if err != nil {
		return nil, fmt.Errorf("loading catalog: %w", err)
	}
	return cat, nil
}

// contractSample picks the requests the contract checks run on: the
// first few a workload knows, plus its first filtered request (after
// the supersets it is filtered from).
func contractSample(w *workload) []request {
	out := append([]request(nil), w.known[:min(4, len(w.known))]...)
	for _, r := range w.known {
		if r.class == "filtered" {
			return append(out, r)
		}
	}
	return out
}

// commit names the checked-out commit, when the checkout is a git tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the server's sources (go.mod, cmd/ and internal/
// .go files), identifying the code measured when no commit is known.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		raw, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}
