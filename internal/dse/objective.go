package dse

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
)

// ObjectiveColumn names one metric an Evaluator emits and its sense:
// Maximize=false columns are costs (lower is better). Rank, TopK and
// ParetoFront consume the sense through ColumnObjective, so "rank by
// mission time" and "rank by endurance" both read naturally.
type ObjectiveColumn struct {
	Name     string
	Maximize bool
}

// Evaluator scores candidates under a mission-level figure of merit,
// composed by the plan *after* the allocation-free partial combine: it
// consumes the finished core.Analysis plus the resolved catalog
// selection and writes one value per Columns() entry into out.
//
// Contract:
//
//   - Columns() is fixed for the evaluator's lifetime; len(out) equals
//     len(Columns()) on every Evaluate call.
//   - Evaluate must be safe for concurrent use: the chunk runner calls
//     it from every worker. All per-candidate state — including any
//     RNG — must be local to the call.
//   - Monte-Carlo evaluators derive their randomness from the seed
//     argument only (the plan mixes the base Seed() with the candidate
//     identity, so results are identical for every worker count and
//     chunk schedule) and must honor ctx between trials: a cancelled
//     request abandons the simulation mid-candidate.
//   - Seed() is the base seed for stochastic evaluators and 0 for
//     deterministic ones; 0 keeps the seed out of the cache key.
//   - Heavy() is the evaluator's declared per-candidate cost class:
//     true when one Evaluate call costs tens of microseconds or more,
//     enough to pay for the worker pool (see PoolSize). It is fixed
//     for the evaluator's lifetime.
//   - A candidate the objective cannot score (a degenerate
//     configuration, an unwinnable scenario) is marked worst — -Inf in
//     Maximize columns, +Inf elsewhere — never NaN: the Pareto skyline
//     keeps NaN rows, so NaN would pollute every frontier.
//   - Evaluate must not retain cand or out after returning.
//
// See docs/OBJECTIVES.md for each registered objective's definition,
// units, determinism contract and relative cost.
type Evaluator interface {
	// Name is the registry name ("mission.endurance").
	Name() string
	// Seed is the base Monte-Carlo seed (0 = deterministic evaluator).
	Seed() int64
	// Columns describes the emitted metrics, in out-slice order.
	Columns() []ObjectiveColumn
	// Heavy reports whether scoring one candidate is costly enough
	// for an exploration to pay for the worker pool.
	Heavy() bool
	// Evaluate scores cand into out (len(out) == len(Columns())).
	Evaluate(ctx context.Context, cand *Candidate, seed int64, out []float64) error
}

// ColumnObjective adapts one evaluator column to the scalar Objective
// used by Best, Rank, TopK and ParetoFront: Maximize columns score as
// the metric itself, cost columns as its negation, so "higher is
// better" holds either way. Candidates without metrics (a plain,
// objective-less exploration) score -Inf.
func ColumnObjective(cols []ObjectiveColumn, idx int) Objective {
	maximize := cols[idx].Maximize
	return func(c Candidate) float64 {
		if idx >= len(c.Metrics) {
			return negInf
		}
		v := c.Metrics[idx]
		if !maximize {
			v = -v
		}
		return v
	}
}

// ColumnIndex resolves a metric column by name, -1 when absent.
func ColumnIndex(cols []ObjectiveColumn, name string) int {
	for i, c := range cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PoolSize is the exploration engine's one execution policy: the
// number of workers an exploration scored by ev should run on, given
// at most max. The pool's goroutines and chunk handoffs cost more than
// they save unless each candidate is expensive, so only a heavy
// evaluator gets the pool (max workers); a plain exploration (nil ev)
// or a cheap analytic objective runs inline on one worker.
// The crossovers behind the split are in docs/OBJECTIVES.md.
func PoolSize(ev Evaluator, max int) int {
	if ev != nil && ev.Heavy() {
		return max
	}
	return 1
}

// worstMetrics marks a candidate the objective cannot score as
// dominated in every column: -Inf where higher is better, +Inf where
// lower is. Never NaN — the Pareto skyline retains NaN rows.
func worstMetrics(cols []ObjectiveColumn, out []float64) {
	for i, c := range cols {
		if c.Maximize {
			out[i] = negInf
		} else {
			out[i] = posInf
		}
	}
}

// objectiveBuilder constructs a registered evaluator against a catalog.
// seed is the caller's base Monte-Carlo seed; deterministic objectives
// ignore it.
type objectiveBuilder func(cat *catalog.Catalog, seed int64) Evaluator

// objectiveRegistry maps registry names to builders. Registration is
// static (package init) — the set is part of the HTTP API surface and
// is documented in docs/OBJECTIVES.md.
var objectiveRegistry = map[string]objectiveBuilder{
	"mission.endurance":  newEnduranceObjective,
	"mission.battery":    newBatteryObjective,
	"mission.thermal":    newThermalObjective,
	"mission.redundancy": newRedundancyObjective,
	"mission.flightsim":  newFlightsimObjective,
	"mission.stochastic": newStochasticObjective,
}

// ObjectiveNames returns the registered objective names, sorted — the
// valid set an unknown-objective error reports.
func ObjectiveNames() []string {
	out := make([]string, 0, len(objectiveRegistry))
	//reprolint:ordered names are sorted below before the slice is returned
	for name := range objectiveRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewObjective builds a registered evaluator. Stochastic objectives
// normalize a zero seed to 1, keeping "seed 0" distinct from the
// deterministic Seed()==0 contract. Unknown names report the valid set.
func NewObjective(name string, cat *catalog.Catalog, seed int64) (Evaluator, error) {
	b, ok := objectiveRegistry[name]
	if !ok {
		return nil, fmt.Errorf("dse: unknown objective %q (have %s)",
			name, strings.Join(ObjectiveNames(), ", "))
	}
	return b(cat, seed), nil
}

// candSeed mixes the base seed with the candidate identity (cell name +
// sensor choice, together unique within a plan) via FNV-1a, inlined so
// the per-candidate hot path allocates nothing. Mixing per candidate —
// rather than drawing from one shared stream — is what makes
// Monte-Carlo results identical across worker counts: each candidate's
// RNG stream depends only on (base seed, candidate), never on
// evaluation order.
func candSeed(base int64, name, sensor string) int64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= 0xff // separator: ("ab","c") must not collide with ("a","bc")
	h *= prime64
	for i := 0; i < len(sensor); i++ {
		h ^= uint64(sensor[i])
		h *= prime64
	}
	return base ^ int64(h)
}
