// Command benchfmt converts the committed BENCH_dse.json record into Go
// benchmark output ("BenchmarkX 1 123 ns/op ...") so benchstat can
// compare a fresh `go test -bench` run against the checked-in baseline,
// and — with -check — gates a fresh run against that record directly.
//
// Usage:
//
//	benchfmt [-f BENCH_dse.json] [-section current]
//	benchfmt -check bench-new.txt [-max-ns-ratio 2.0]
//	         [-max-alloc-ratio 1.25] [-alloc-slack 8]
//	         [-multicore-ns-ratio 1.5]
//
// The section flag picks which record to emit ("current" is the latest
// capture; "baseline" the pre-rework engine). Benchmarks are emitted in
// name order so the output is deterministic.
//
// -check compares each fresh benchmark against the record's row of the
// same name and fails (exit 1) on regression. The two families gate
// differently on purpose: allocs/op is deterministic across machines,
// so its bound is tight (ratio × recorded + a small slack for
// scheduling-dependent parallel rows), while ns/op varies with the
// host, so its bound is loose — it catches an order-of-magnitude
// slide, not noise. Fresh benchmarks missing from the record are
// ignored (new benches land before their record does); recorded
// benchmarks missing from the fresh run are reported but do not fail,
// so partial runs can still gate what they measured.
//
// When the record has a "multicore" section, rows named there take
// their ns/op bound from that section's measurement × the tighter
// -multicore-ns-ratio: the multicore rows are the scheduler's headline
// claims (skewed-load balancing, contended cache hits), captured on
// the same runner class that gates them, so they do not get the
// cross-machine slack the general bound allows. Alloc bounds are
// unchanged — they come from the main section either way.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// measurement is one benchmark record in BENCH_dse.json.
type measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchfmt", flag.ContinueOnError)
	file := fs.String("f", "BENCH_dse.json", "benchmark record to convert")
	section := fs.String("section", "current", "record section to emit (current or baseline)")
	check := fs.String("check", "", "gate this fresh `go test -bench` output file against the record instead of emitting it")
	maxNsRatio := fs.Float64("max-ns-ratio", 2.0, "-check: fail when ns/op exceeds recorded × this (loose: hosts differ)")
	maxAllocRatio := fs.Float64("max-alloc-ratio", 1.25, "-check: fail when allocs/op exceeds recorded × this + slack (tight: allocs are deterministic)")
	allocSlack := fs.Float64("alloc-slack", 8, "-check: absolute allocs/op headroom for scheduling-dependent parallel rows")
	multicoreNsRatio := fs.Float64("multicore-ns-ratio", 1.5, "-check: ns/op bound ratio for rows in the record's multicore section (tight: same runner class)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	benches, err := loadSection(*file, *section)
	if err != nil {
		return err
	}
	if *check != "" {
		// The multicore section is optional: records predating it gate
		// every row with the general cross-machine bound.
		multicore, err := loadSection(*file, "multicore")
		if err != nil {
			multicore = nil
		}
		return runCheck(*check, benches, multicore, *maxNsRatio, *maxAllocRatio, *allocSlack, *multicoreNsRatio, stdout)
	}
	names := make([]string, 0, len(benches))
	for name := range benches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := benches[name]
		// %g keeps the recorded precision: sub-microsecond records like
		// 188.3 ns/op must not round before benchstat sees them (B/op
		// and allocs/op are integral by construction).
		if _, err := fmt.Fprintf(stdout, "%s \t1\t%g ns/op\t%.0f B/op\t%.0f allocs/op\n",
			name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp); err != nil {
			return err
		}
	}
	return nil
}

func loadSection(file, section string) (map[string]measurement, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	sec, ok := doc[section]
	if !ok {
		return nil, fmt.Errorf("%s: no %q section", file, section)
	}
	var benches map[string]measurement
	if err := json.Unmarshal(sec, &benches); err != nil {
		return nil, fmt.Errorf("%s: section %q: %w", file, section, err)
	}
	return benches, nil
}

// parseBenchOutput extracts "BenchmarkName → measurement" rows from
// `go test -bench -benchmem` output, ignoring everything else.
func parseBenchOutput(r io.Reader) (map[string]measurement, error) {
	out := map[string]measurement{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		var m measurement
		ok := false
		// fields: name, iterations, then value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, ok = v, true
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if ok {
			out[fields[0]] = m
		}
	}
	return out, sc.Err()
}

// runCheck gates fresh benchmark output against the recorded section.
// Rows named in multicore take their ns/op bound from that section's
// record × multicoreNsRatio instead of the general cross-machine bound.
func runCheck(freshPath string, record, multicore map[string]measurement, maxNsRatio, maxAllocRatio, allocSlack, multicoreNsRatio float64, stdout io.Writer) error {
	f, err := os.Open(freshPath)
	if err != nil {
		return err
	}
	defer f.Close()
	fresh, err := parseBenchOutput(f)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("%s: no benchmark lines found", freshPath)
	}

	seen := map[string]bool{}
	var names []string
	for name := range record {
		names = append(names, name)
		seen[name] = true
	}
	// Multicore-only rows still gate (against their own section); rows
	// in both take allocs from the main record and ns from multicore.
	for name := range multicore {
		if !seen[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	var violations []string
	checked := 0
	for _, name := range names {
		rec, inMain := record[name]
		got, ok := fresh[name]
		if !ok {
			fmt.Fprintf(stdout, "SKIP %s: not in fresh output\n", name)
			continue
		}
		checked++
		nsBound := rec.NsPerOp * maxNsRatio
		nsRatio, nsRec := maxNsRatio, rec.NsPerOp
		if mc, ok := multicore[name]; ok {
			nsBound = mc.NsPerOp * multicoreNsRatio
			nsRatio, nsRec = multicoreNsRatio, mc.NsPerOp
			if !inMain {
				rec = mc
			}
		}
		allocBound := rec.AllocsPerOp*maxAllocRatio + allocSlack
		status := "ok  "
		if got.NsPerOp > nsBound {
			status = "FAIL"
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op > %.0f (recorded %.0f × %.2f)", name, got.NsPerOp, nsBound, nsRec, nsRatio))
		}
		if got.AllocsPerOp > allocBound {
			status = "FAIL"
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f allocs/op > %.0f (recorded %.0f × %.2f + %.0f)", name, got.AllocsPerOp, allocBound, rec.AllocsPerOp, maxAllocRatio, allocSlack))
		}
		fmt.Fprintf(stdout, "%s %s: %.0f ns/op (bound %.0f), %.0f allocs/op (bound %.0f)\n",
			status, name, got.NsPerOp, nsBound, got.AllocsPerOp, allocBound)
	}
	if checked == 0 {
		return fmt.Errorf("no recorded benchmarks matched the fresh output (name drift?)")
	}
	if len(violations) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(stdout, "checked %d/%d recorded benchmarks, all within bounds\n", checked, len(names))
	return nil
}
