// Package dse automates the paper's §VI-D full-system characterization
// and the conclusion's "automated design space exploration": enumerate
// every (UAV × compute × algorithm × sensor) combination in a catalog,
// analyze each with the F-1 model, filter by constraints, rank by
// objectives and extract the Pareto frontier.
//
// # Architecture
//
// The engine is built for catalogs far beyond the paper's handful of
// presets:
//
//   - Explorer (explore.go) pre-resolves every axis value against the
//     catalog once per compiled space (Compile), then walks the cross product in claim grains
//     through one chunk loop. PoolSize picks where that loop runs from
//     the objective's declared cost class (Evaluator.Heavy): a plain
//     or cheap-objective exploration runs it inline on the caller's
//     goroutine, where the pool's goroutines and chunk handoffs would
//     cost more than the candidates themselves; a heavy (simulated)
//     objective fans it out across the package's chunk runner
//     (pool.go): workers claim small grains from one shared atomic
//     counter, so skewed spaces, where some cells analyze orders of
//     magnitude slower than others, balance themselves instead of
//     stalling the pool behind one slow fixed share. Claims are
//     ascending and results land in per-chunk slots read back in chunk
//     order, so the output is deterministic and element-for-element
//     identical to a serial scan for every worker count and grain
//     size. Both paths share the chunk loop's fault site, panic
//     recovery and cancellation checks.
//     Explorer.Candidates streams the space as an iter.Seq2, so
//     callers can filter or stop early without materializing it;
//     Explorer.ExploreContext (and its no-context shorthand Enumerate)
//     collects it. Both are request-scoped: cancelling the context — a
//     disconnected HTTP client, a deadline — stops in-flight grains
//     between candidates instead of draining the space.
//   - Analysis hot paths are partially evaluated (explore.go): the
//     plan resolves every catalog lookup once per compiled space,
//     renders all cell names into one backing buffer, and precomputes
//     the factored pieces of the F-1 model — one core.ModelPartial per
//     distinct (airframe, payload, sensing range) triple (the a_max
//     lookup and knee/roof derivation; the algorithm axis never touches
//     the model, so algorithm-heavy spaces reuse each partial once per
//     algorithm) and one core.Stage per distinct sensor, algorithm-on-
//     compute and control rate. Building a candidate is then index math
//     plus the allocation-free core.AnalyzeWithPartial combine —
//     bit-identical to a from-scratch core.Analyze. All of it depends
//     only on the catalog and the axis lists, so it lives in an
//     immutable Compiled space (Compile) that any number of runs share;
//     a run adds only its constraints and objective. The plan memoizes
//     nothing per candidate: the combine is cheaper than a probe of a
//     shared cache, so reuse across requests happens a level up, where
//     the Skyline server keeps one compiled space per axis selection
//     and its persistent result store replays whole responses.
//   - Sweep and GridSweep reuse the same factoring per point through one
//     evaluator for every knob: a swept rate rebuilds one Stage, a swept
//     range goes through ModelPartial.WithRange (reusing the a_max
//     lookup), and a swept payload — the a_max lookup's own input —
//     rebuilds the partial from the point's configuration. No knob
//     falls back to the full analysis.
//   - An optional mission-level Evaluator (objective.go, mission.go)
//     scores each surviving candidate with the dormant simulation
//     packages the F-1 model abstracts away — endurance, battery sag,
//     thermal/payload packaging, TMR redundancy, flight simulation,
//     pipeline jitter — emitting named metric columns that Rank, TopK
//     and ParetoFront consume and the Skyline server streams. Only
//     candidates that pass the constraints are scored; Monte-Carlo
//     evaluators derive each candidate's seed from its identity, so
//     parallel runs reproduce serial ones bit for bit. See
//     docs/OBJECTIVES.md for every objective, its columns, units and
//     the determinism/seed contract.
//   - Rank and TopK (this file) score every candidate exactly once;
//     TopK keeps a bounded heap instead of sorting the full slate.
//   - ParetoFront (pareto.go) runs the argmax set for one objective, a
//     sort-based O(n log n) skyline for two, and a sort-filter
//     block-nested-loop scan with early termination for three or more.
//   - Sweep and GridSweep (sweep.go) evaluate knob sweeps on the same
//     chunk loop as an exploration — the same runner, pool rule
//     (workers 0 = PoolSize: inline), per-chunk fault site and panic
//     recovery, and between-point cancellation checks — with
//     position-stable writes; they are the engine behind the Skyline
//     server's /sweep.svg and /grid.svg and the experiment
//     reproductions.
//
// The package's cross-cutting invariants — caller-supplied context
// flow, deterministic emission order, and the hot-path allocation
// discipline of the combine and chunk loop (//reprolint:hotpath) — are
// mechanized by the internal/lint analyzers and gated in CI via
// cmd/reprolint; see docs/INVARIANTS.md for each invariant, its
// motivation, and the escape hatches.
package dse

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/units"
)

// Candidate is one explored configuration with its F-1 analysis.
type Candidate struct {
	Selection catalog.Selection
	Analysis  core.Analysis
	// Power is the compute platform's TDP (the payload side is already
	// inside the analysis).
	Power units.Power
	// Metrics are the mission-level metric columns, parallel to the
	// exploring Evaluator's Columns(); nil on plain (objective-less)
	// explorations. Each candidate gets a fresh slice.
	Metrics []float64
	// Index is the candidate's position in the canonical (cell, sensor)
	// enumeration of its space, counted before constraints:
	// Index/Compiled.Sensors() is its cell. Selection passes (TopK,
	// Rank, ParetoFront) copy candidates whole, so it survives them and
	// maps any selected candidate back to its cell.
	Index int
}

// Name renders the candidate's configuration name.
func (c Candidate) Name() string { return c.Analysis.Config.Name }

// Space is the cross product to explore.
type Space struct {
	UAVs       []string
	Computes   []string
	Algorithms []string
	// Sensors optionally overrides each UAV's default sensor (empty =
	// default only).
	Sensors []string
}

// Constraints prune candidates before ranking.
type Constraints struct {
	// MaxPayload rejects configurations whose payload exceeds it
	// (zero = unconstrained).
	MaxPayload units.Mass
	// MaxPower rejects compute platforms whose TDP exceeds it
	// (zero = unconstrained).
	MaxPower units.Power
	// MinVelocity rejects configurations below this safe velocity
	// (zero = unconstrained).
	MinVelocity units.Velocity
}

// Allows reports whether the candidate satisfies the constraints.
func (c Constraints) Allows(cand Candidate) bool {
	return c.AllowsValues(cand.Analysis.Config.Payload.Grams(), cand.Power.Watts(), cand.Analysis.SafeVelocity.MetersPerSecond())
}

// AllowsValues is the one constraint predicate, over a candidate's
// payload (grams), compute power (watts) and safe velocity (m/s) — the
// units of the /explore wire format, so a filter over stored lines and
// the engine decide every candidate alike. Payload compares in grams
// on both sides: two masses one kilogram-ulp apart can read the same
// gram value, and the gram value is what a client sees and constrains.
func (c Constraints) AllowsValues(payloadG, powerW, vSafeMS float64) bool {
	if c.MaxPayload > 0 && payloadG > c.MaxPayload.Grams() {
		return false
	}
	if c.MaxPower > 0 && powerW > c.MaxPower.Watts() {
		return false
	}
	if c.MinVelocity > 0 && vSafeMS < c.MinVelocity.MetersPerSecond() {
		return false
	}
	return true
}

// Objective scores a candidate; higher is better.
type Objective func(Candidate) float64

// MaxVelocity ranks by safe velocity — the paper's primary objective.
func MaxVelocity(c Candidate) float64 { return c.Analysis.SafeVelocity.MetersPerSecond() }

// MinPower ranks by (negated) compute TDP.
func MinPower(c Candidate) float64 { return -c.Power.Watts() }

// MinPayload ranks by (negated) payload mass.
func MinPayload(c Candidate) float64 { return -c.Analysis.Config.Payload.Grams() }

// Balance ranks by closeness to the knee (1/GapFactor): balanced
// designs score 1, badly over/under-provisioned ones approach 0.
func Balance(c Candidate) float64 {
	g := c.Analysis.GapFactor
	if g <= 0 || math.IsInf(g, 1) {
		return 0
	}
	return 1 / g
}

// Best returns the highest-scoring candidate under the objective, with
// deterministic name-ordered tie breaking. It is a single pass that
// invokes the objective exactly once per candidate, and errors on an
// empty slate.
func Best(cands []Candidate, obj Objective) (Candidate, error) {
	if len(cands) == 0 {
		return Candidate{}, fmt.Errorf("dse: no candidates")
	}
	best := 0
	bestScore := obj(cands[0])
	for i := 1; i < len(cands); i++ {
		s := obj(cands[i])
		if s > bestScore || (s == bestScore && cands[i].Name() < cands[best].Name()) {
			best, bestScore = i, s
		}
	}
	return cands[best], nil
}

// Rank sorts candidates by descending objective score (stable,
// name-tie-broken) and returns a new slice. Scores are precomputed
// once — the objective runs n times, not O(n log n) times in the
// comparator.
func Rank(cands []Candidate, obj Objective) []Candidate {
	scores := make([]float64, len(cands))
	order := make([]int, len(cands))
	for i, c := range cands {
		scores[i] = obj(c)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return cands[ia].Name() < cands[ib].Name()
	})
	out := make([]Candidate, len(cands))
	for i, idx := range order {
		out[i] = cands[idx]
	}
	return out
}

// TopK returns the k highest-scoring candidates in rank order (score
// descending, name-ascending on ties) without sorting the full slate:
// a bounded min-heap keeps the cost at O(n log k). k >= len(cands)
// degenerates to Rank.
func TopK(cands []Candidate, obj Objective, k int) []Candidate {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	if k >= len(cands) {
		return Rank(cands, obj)
	}
	h := topKHeap{cands: cands, scores: make([]float64, len(cands))}
	for i, c := range cands {
		h.scores[i] = obj(c)
	}
	for i := range cands {
		if len(h.idx) < k {
			h.idx = append(h.idx, i)
			if len(h.idx) == k {
				heap.Init(&h)
			}
			continue
		}
		// Replace the heap minimum when candidate i ranks above it.
		if h.ranksAbove(i, h.idx[0]) {
			h.idx[0] = i
			heap.Fix(&h, 0)
		}
	}
	out := make([]Candidate, len(h.idx))
	for i := len(h.idx) - 1; i >= 0; i-- {
		out[i] = cands[heap.Pop(&h).(int)]
	}
	return out
}

// topKHeap is a min-heap of candidate indices under (score, name,
// input index) rank order, so the root is the weakest of the current
// top k. The index tie-break makes the order total — names alone are
// not unique (sensor variants of one cell share a name) — and matches
// the input-order stability of Rank.
type topKHeap struct {
	cands  []Candidate
	scores []float64
	idx    []int
}

// ranksAbove reports whether candidate a outranks candidate b.
func (h *topKHeap) ranksAbove(a, b int) bool {
	if h.scores[a] != h.scores[b] {
		return h.scores[a] > h.scores[b]
	}
	if na, nb := h.cands[a].Name(), h.cands[b].Name(); na != nb {
		return na < nb
	}
	return a < b
}

func (h *topKHeap) Len() int           { return len(h.idx) }
func (h *topKHeap) Less(i, j int) bool { return h.ranksAbove(h.idx[j], h.idx[i]) }
func (h *topKHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *topKHeap) Push(x any)         { h.idx = append(h.idx, x.(int)) }
func (h *topKHeap) Pop() (x any)       { x, h.idx = h.idx[len(h.idx)-1], h.idx[:len(h.idx)-1]; return }
