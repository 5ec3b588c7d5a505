package dse

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/units"
)

// Explorer is the design-space exploration engine: it walks the
// (UAV × compute × algorithm × sensor) cross product in claim grains —
// inline on the caller's goroutine, or fanned out across the package's
// chunk runner when the per-candidate cost pays for it — and streams
// the surviving candidates in the canonical serial order, so parallel
// output is element-for-element identical to Workers=1 output even when
// the space is skewed and workers finish their chunks out of order.
type Explorer struct {
	Catalog     *catalog.Catalog
	Space       Space
	Constraints Constraints
	// Workers sizes the pool. 0 lets PoolSize pick from the objective's
	// cost class: GOMAXPROCS workers for a heavy evaluator, otherwise
	// one. 1 runs the chunk loop inline on the caller's goroutine (no
	// goroutines); an explicit count is honored as given.
	Workers int
	// ChunkSize is the claim grain — the number of candidates a worker
	// takes from the shared chunk counter at once; 0 picks a size that
	// spreads skewed cells without measurable claim overhead.
	ChunkSize int
	// Compiled optionally supplies the space pre-resolved by Compile;
	// Catalog and Space are then ignored. Nil compiles Catalog and Space
	// for this run alone. A caller that explores one space repeatedly
	// (the Skyline server, per axis selection) compiles it once and
	// shares it across runs.
	Compiled *Compiled
	// Cache is not consulted: recomputing a candidate from the plan's
	// partials is cheaper than probing a shared cache, and whole-request
	// reuse is the Skyline server's persistent result store's job.
	//
	// Deprecated: ignored; the plan no longer memoizes per candidate.
	// The field remains only until perfbench stops setting it.
	Cache *core.Cache
	// Objective optionally scores each surviving candidate with a
	// mission-level evaluator (see NewObjective and docs/OBJECTIVES.md):
	// the plan composes it after the partial combine and the constraint
	// check and fills Candidate.Metrics with its columns. Nil explores
	// the plain F-1 analysis only.
	Objective Evaluator
}

// workers resolves the effective pool size.
func (e Explorer) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return PoolSize(e.Objective, runtime.GOMAXPROCS(0))
}

// grain resolves the chunk runner's claim quantum for n candidates.
func (e Explorer) grain(n, workers int) int {
	if e.ChunkSize > 0 {
		return e.ChunkSize
	}
	return chunkGrain(n, workers)
}

// Compiled is a design space resolved against a catalog and partially
// evaluated: every catalog lookup is done once, and every part of the
// F-1 analysis that depends on only a subset of the axes is computed
// once per distinct subset value — one core.ModelPartial per distinct
// (airframe, payload, sensing range) triple, one core.Stage per
// distinct rate. It depends only on the catalog and the axis lists, not
// on constraints or an objective, so one Compiled serves any number of
// runs: it is read-only after Compile returns and safe to share across
// goroutines and requests (Explorer.Compiled).
type Compiled struct {
	uavs []catalog.UAV
	// computes and computeMass are parallel: computeMass[i] is
	// computes[i].TotalMass under the catalog's heatsink model.
	computes    []catalog.Compute
	computeMass []units.Mass
	sensors     []sensorChoice
	// cells enumerates the buildable (UAV, compute, algorithm) triples
	// in canonical order; each crosses with every sensor choice.
	cells []cell
	// partials[(u·|computes|+c)·|sensors|+s] is the model partial for
	// the (UAV u, compute c, sensor s) payload triple. Distinct triples
	// that resolve to the same (payload, range) on one UAV share a
	// partial; the algorithm axis never touches the model, so every
	// algorithm of a cell reuses its partial outright.
	partials []*core.ModelPartial
	// sensorStages[u·|sensors|+s] is the sensor pipeline stage — per
	// (UAV, sensor) because the default sensor choice resolves per UAV.
	sensorStages []core.Stage
	// controlStages[u] is UAV u's flight-controller stage.
	controlStages []core.Stage
}

// plan is one exploration run: a compiled space plus the run's view of
// it — the constraints and the optional objective. Building candidate i
// is index math, the allocation-free core.AnalyzeWithPartial combine
// and a constraint check: no catalog access, no acceleration-model
// evaluation, no knee/roof recomputation.
type plan struct {
	*Compiled
	cons Constraints
	// obj is the optional mission-level evaluator, with its registry
	// name, base Monte-Carlo seed (0 = deterministic) and column set
	// resolved once at plan time.
	obj     Evaluator
	objName string
	objSeed int64
	objCols []ObjectiveColumn
}

// sensorChoice is one value of the sensor axis: a named catalog sensor,
// or the UAV's default (the empty name).
type sensorChoice struct {
	name       string
	spec       catalog.Sensor
	useDefault bool
}

// cell is one buildable (UAV, compute, algorithm) triple with its
// measured compute stage and precomputed configuration name.
type cell struct {
	u, c int
	algo string
	// stage is the algorithm-on-compute pipeline stage; stage.Rate is
	// the perf-table throughput.
	stage core.Stage
	name  string
}

// Len is the number of candidates a run over the space visits before
// constraints: Cells()·Sensors().
func (c *Compiled) Len() int { return len(c.cells) * len(c.sensors) }

// Cells is the number of buildable (UAV, compute, algorithm) cells.
func (c *Compiled) Cells() int { return len(c.cells) }

// Sensors is the number of sensor-axis choices crossed with every
// cell. Candidate.Index i belongs to cell i/Sensors().
func (c *Compiled) Sensors() int { return len(c.sensors) }

// Cell returns cell i's configuration name and selection, exactly as
// every candidate of the cell carries them (Analysis.Config.Name and
// Selection); the selection's Sensor is empty because the sensor axis
// crosses the cell.
func (c *Compiled) Cell(i int) (name string, sel catalog.Selection) {
	cl := &c.cells[i]
	return cl.name, catalog.Selection{UAV: c.uavs[cl.u].Name, Compute: c.computes[cl.c].Name, Algorithm: cl.algo}
}

// newPlan attaches a run's view — constraints and objective — to e's
// compiled space, compiling e.Catalog and e.Space first when
// e.Compiled is nil. The SiteDSEPlan fault fires here, once per run,
// whether or not the space was compiled in advance.
func newPlan(e *Explorer) (*plan, error) {
	if err := faultinject.Fire(faultinject.SiteDSEPlan); err != nil {
		return nil, fmt.Errorf("dse: planning exploration: %w", err)
	}
	c := e.Compiled
	if c == nil {
		var err error
		if c, err = Compile(e.Catalog, e.Space); err != nil {
			return nil, err
		}
	}
	p := &plan{Compiled: c, cons: e.Constraints}
	if obj := e.Objective; obj != nil {
		p.obj = obj
		p.objName = obj.Name()
		p.objSeed = obj.Seed()
		p.objCols = obj.Columns()
	}
	return p, nil
}

// Compile resolves the space against the catalog. Unknown UAVs,
// computes, sensors and algorithms are errors; a registered algorithm
// without a performance-table row on a given compute is silently
// skipped — that combination is not a buildable system. The axis order
// is the candidate order: two spaces listing the same names in
// different orders compile to different enumerations.
func Compile(cat *catalog.Catalog, space Space) (*Compiled, error) {
	if len(space.UAVs) == 0 || len(space.Computes) == 0 || len(space.Algorithms) == 0 {
		return nil, fmt.Errorf("dse: space must name at least one UAV, compute and algorithm")
	}
	p := &Compiled{}
	p.uavs = make([]catalog.UAV, len(space.UAVs))
	for i, name := range space.UAVs {
		u, err := cat.UAV(name)
		if err != nil {
			return nil, fmt.Errorf("dse: resolving UAV %q: %w", name, err)
		}
		p.uavs[i] = u
	}
	p.computes = make([]catalog.Compute, len(space.Computes))
	p.computeMass = make([]units.Mass, len(space.Computes))
	for i, name := range space.Computes {
		c, err := cat.Compute(name)
		if err != nil {
			return nil, fmt.Errorf("dse: resolving compute %q: %w", name, err)
		}
		p.computes[i] = c
		p.computeMass[i] = c.TotalMass(cat.Heatsink)
	}
	sensorNames := space.Sensors
	if len(sensorNames) == 0 {
		sensorNames = []string{""}
	}
	p.sensors = make([]sensorChoice, len(sensorNames))
	for i, name := range sensorNames {
		if name == "" {
			p.sensors[i] = sensorChoice{useDefault: true}
			continue
		}
		s, err := cat.Sensor(name)
		if err != nil {
			return nil, fmt.Errorf("dse: resolving sensor %q: %w", name, err)
		}
		p.sensors[i] = sensorChoice{name: name, spec: s}
	}
	// Rate lookups once per (algorithm × compute) pair — not once per
	// candidate — with each measured rate's stage round trip done here.
	type algoStages struct {
		stages []core.Stage // parallel to p.computes; Rate < 0 = unmeasured
	}
	perAlgo := make([]algoStages, len(space.Algorithms))
	for ai, algo := range space.Algorithms {
		// Validation parity with the UAV/compute/sensor axes: an
		// algorithm the catalog has never heard of is a caller error,
		// surfaced at plan time — not a silently empty exploration. A
		// registered algorithm merely lacking perf rows on the requested
		// computes is different: those combinations are simply not
		// buildable and are skipped below.
		if _, err := cat.Algorithm(algo); err != nil {
			return nil, fmt.Errorf("dse: resolving algorithm %q: %w", algo, err)
		}
		stages := make([]core.Stage, len(space.Computes))
		for ci, comp := range space.Computes {
			r, err := cat.Perf(algo, comp)
			if err != nil {
				stages[ci] = core.Stage{Rate: -1}
				continue
			}
			stages[ci] = core.PrecomputeStage(r)
		}
		perAlgo[ai] = algoStages{stages: stages}
	}
	// Real catalogs are sparse (most algorithms are measured on few
	// platforms), so size the cell slice by the measured pairs, not the
	// full cross product.
	measured := 0
	for ai := range perAlgo {
		for ci := range perAlgo[ai].stages {
			if perAlgo[ai].stages[ci].Rate >= 0 {
				measured++
			}
		}
	}
	// Cell names render into one exact-size backing buffer and are
	// sliced back out, so the whole plan costs one name allocation
	// instead of one per cell. Each name is byte-identical to
	// catalog.Resolved.Name.
	p.cells = make([]cell, 0, len(space.UAVs)*measured)
	pairUsed := make([]bool, len(space.UAVs)*len(space.Computes))
	total := 0
	for ui := range space.UAVs {
		for ci := range space.Computes {
			for ai, algo := range space.Algorithms {
				st := perAlgo[ai].stages[ci]
				if st.Rate < 0 {
					continue // not a buildable combination
				}
				total += len(space.UAVs[ui]) + len(algo) + len(space.Computes[ci]) + 2*len(" + ")
				p.cells = append(p.cells, cell{u: ui, c: ci, algo: algo, stage: st})
				pairUsed[ui*len(space.Computes)+ci] = true
			}
		}
	}
	var names strings.Builder
	names.Grow(total) // best-effort sizing; offs below is authoritative
	offs := make([]int, len(p.cells)+1)
	for i := range p.cells {
		cl := &p.cells[i]
		names.WriteString(space.UAVs[cl.u])
		names.WriteString(" + ")
		names.WriteString(cl.algo)
		names.WriteString(" + ")
		names.WriteString(space.Computes[cl.c])
		offs[i+1] = names.Len()
	}
	all := names.String()
	for i := range p.cells {
		p.cells[i].name = all[offs[i]:offs[i+1]]
	}
	p.precompute(pairUsed)
	return p, nil
}

// precompute builds the factored-evaluation tables: per-(UAV, sensor)
// sensor stages, per-UAV control stages, and one model partial per
// distinct (UAV, payload, sensing range) triple across the
// (UAV × compute × sensor) cross section — restricted to the
// (UAV, compute) pairs some cell actually uses, so a sparse perf table
// does not pay a_max lookups for unbuildable combinations. The
// algorithm axis is absent by construction — it only contributes the
// compute stage — so an algorithm-heavy space reuses each partial once
// per algorithm.
func (p *Compiled) precompute(pairUsed []bool) {
	nS := len(p.sensors)
	p.sensorStages = make([]core.Stage, len(p.uavs)*nS)
	p.controlStages = make([]core.Stage, len(p.uavs))
	p.partials = make([]*core.ModelPartial, len(p.uavs)*len(p.computes)*nS)
	type partialKey struct {
		u       int
		payload units.Mass
		rng     units.Length
	}
	dedup := make(map[partialKey]*core.ModelPartial, len(p.uavs)*len(p.computes))
	for ui := range p.uavs {
		uav := &p.uavs[ui]
		p.controlStages[ui] = core.PrecomputeStage(uav.ControlRate)
		for si := range p.sensors {
			sensor := p.sensors[si].spec
			if p.sensors[si].useDefault {
				sensor = uav.DefaultSensor
			}
			p.sensorStages[ui*nS+si] = core.PrecomputeStage(sensor.Rate)
			for ci := range p.computes {
				if !pairUsed[ui*len(p.computes)+ci] {
					continue // no buildable cell references this pair
				}
				// Assemble through catalog.Resolved so the payload
				// formula and field mapping live in exactly one place;
				// the rates are combine-time inputs and stay zero.
				r := catalog.Resolved{
					UAV:         *uav,
					Compute:     p.computes[ci],
					Sensor:      sensor,
					ComputeMass: p.computeMass[ci],
				}
				key := partialKey{u: ui, payload: r.Payload(), rng: sensor.Range}
				mp, ok := dedup[key]
				if !ok {
					pm := core.PrecomputeModel(r.ConfigNamed(""))
					mp = &pm
					dedup[key] = mp
				}
				p.partials[(ui*len(p.computes)+ci)*nS+si] = mp
			}
		}
	}
}

// candidateInto builds and analyzes candidate i in place — callers
// hand it the output slot so a ~half-kilobyte Candidate is written
// once, not copied through return values. ok is false when the
// constraints reject it (the slot's contents are then unspecified).
// arena supplies the Ceilings backing (one allocation per block
// instead of per candidate). ctx reaches only the objective evaluator;
// the combine itself is pure arithmetic with no cancellation points.
//
//reprolint:hotpath
func (p *plan) candidateInto(ctx context.Context, i int, cand *Candidate, arena *[]core.Ceiling) (ok bool, err error) {
	nS := len(p.sensors)
	ci, si := i/nS, i%nS
	cl := &p.cells[ci]
	sc := &p.sensors[si]
	uav := &p.uavs[cl.u]
	comp := &p.computes[cl.c]
	mp := p.partials[(cl.u*len(p.computes)+cl.c)*nS+si]
	if err = core.AnalyzeWithPartialInto(mp, cl.name, p.sensorStages[cl.u*nS+si], cl.stage, p.controlStages[cl.u], arena, &cand.Analysis); err != nil {
		return false, fmt.Errorf("dse: analyzing %s/%s/%s: %w", uav.Name, comp.Name, cl.algo, err)
	}
	cand.Selection = catalog.Selection{UAV: uav.Name, Compute: comp.Name, Algorithm: cl.algo, Sensor: sc.name}
	cand.Index = i
	cand.Power = comp.TDP
	// The caller's slot may have carried a scored candidate (the inline
	// stream reuses one grain buffer); a plain exploration must not leak
	// stale metrics.
	cand.Metrics = nil
	if !p.cons.Allows(*cand) {
		return false, nil
	}
	if p.obj == nil {
		return true, nil
	}
	// Only survivors pay the evaluator: a constraint-pruned candidate
	// never runs a Monte-Carlo simulation. Monte-Carlo evaluators get a
	// per-candidate seed mixed from the base seed and the candidate
	// identity, which is what keeps results identical across worker
	// counts and chunk schedules.
	var seed int64
	if p.objSeed != 0 {
		seed = candSeed(p.objSeed, cl.name, sc.name)
	}
	metrics := make([]float64, len(p.objCols))
	if err = p.obj.Evaluate(ctx, cand, seed, metrics); err != nil {
		return false, fmt.Errorf("dse: objective %s on %s/%s/%s: %w", p.objName, uav.Name, comp.Name, cl.algo, err)
	}
	cand.Metrics = metrics
	return true, nil
}

// processChunk analyzes candidates [start,end), appending the survivors
// to out in order, with their Ceilings carved from *arena; out must
// have spare capacity for end-start candidates. It is the
// one chunk loop of both execution paths: pool workers run it on their
// goroutines, and a one-worker exploration runs it grain by grain on
// the caller's. On error — including cancellation of ctx, checked
// between candidates so in-flight chunks abort instead of draining —
// it returns out extended by the survivors found before the failing
// candidate, together with the error. A panicking analysis (corrupt
// model data, an armed fault) is recovered into an error rather than
// unwinding, with out returned as it was passed in: on a pool
// goroutine an escaped panic would kill the whole process instead of
// failing one request.
func (p *plan) processChunk(ctx context.Context, start, end int, out []Candidate, arena *[]core.Ceiling) (res []Candidate, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = out, fmt.Errorf("dse: panic analyzing candidates [%d,%d): %v", start, end, r)
		}
	}()
	if err := faultinject.Fire(faultinject.SiteDSEChunk); err != nil {
		return out, fmt.Errorf("dse: chunk [%d,%d): %w", start, end, err)
	}
	return p.processChunkBody(ctx, start, end, out, arena)
}

//reprolint:hotpath
func (p *plan) processChunkBody(ctx context.Context, start, end int, out []Candidate, arena *[]core.Ceiling) ([]Candidate, error) {
	done := ctx.Done() // one channel load; the per-candidate check is a cheap select
	for i := start; i < end; i++ {
		select {
		case <-done:
			return out, ctx.Err()
		default:
		}
		// Extend first and analyze into the new slot, truncating on a
		// rejection: survivors are written in place, never copied.
		out = out[:len(out)+1]
		ok, err := p.candidateInto(ctx, i, &out[len(out)-1], arena)
		if err != nil {
			return out[:len(out)-1], err
		}
		if !ok {
			out = out[:len(out)-1]
		}
	}
	return out, nil
}

// newArena starts a Ceilings arena for a run over n candidates: one
// block sized for up to three ceilings per candidate, capped because
// the combine rolls over to fresh blocks anyway when a block fills.
// Blocks are append-only, so candidates retained by a consumer keep
// their Ceilings while later candidates carve new spans.
func newArena(n int) []core.Ceiling {
	return make([]core.Ceiling, 0, 3*min(n, 1024))
}

// Candidates streams the exploration as an iterator: candidates arrive
// in canonical (UAV, compute, algorithm, sensor) order regardless of
// the worker count, and callers can stop early — remaining work is
// cancelled, not drained. Cancelling ctx (a client disconnect, a
// deadline) likewise stops in-flight chunks between candidates and
// surfaces ctx's error. A non-nil error is the final element.
func (e Explorer) Candidates(ctx context.Context) iter.Seq2[Candidate, error] {
	return func(yield func(Candidate, error) bool) {
		if ctx == nil {
			//reprolint:allow ctxflow nil-ctx compatibility guard, documented as running uncancellable
			ctx = context.Background()
		}
		p, err := newPlan(&e)
		if err != nil {
			yield(Candidate{}, err)
			return
		}
		n := p.Len()
		if n == 0 {
			return
		}
		// emit yields one grain's survivors, then its error if any;
		// false stops the stream.
		emit := func(cands []Candidate, err error) bool {
			for _, c := range cands {
				if !yield(c, nil) {
					return false
				}
			}
			if err != nil {
				yield(Candidate{}, err)
				return false
			}
			return true
		}
		workers := e.workers()
		grain := e.grain(n, workers)
		if workers > 1 && n > grain {
			for cands, err := range streamChunks(ctx, p, n, grain, workers) {
				if !emit(cands, err) {
					return
				}
			}
			return
		}
		// Inline: the pool's chunk loop (processChunk, with its fault
		// site, panic recovery and cancellation checks) run grain by
		// grain on the caller's goroutine. One grain buffer and one
		// Ceilings arena serve the whole stream: yielded candidates are
		// copies, and arena blocks are append-only.
		buf := make([]Candidate, 0, min(grain, n))
		arena := newArena(n)
		for start := 0; start < n; start += grain {
			if !emit(p.processChunk(ctx, start, min(start+grain, n), buf[:0], &arena)) {
				return
			}
		}
	}
}

// ExploreContext collects the full exploration, honoring ctx: on
// cancellation the workers stop between candidates and the context's
// error is returned. The result is identical — same candidates, same
// order — for every worker count.
func (e Explorer) ExploreContext(ctx context.Context) ([]Candidate, error) {
	if ctx == nil {
		//reprolint:allow ctxflow nil-ctx compatibility guard, documented as running uncancellable
		ctx = context.Background()
	}
	p, err := newPlan(&e)
	if err != nil {
		return nil, err
	}
	n := p.Len()
	workers := e.workers()
	grain := e.grain(n, workers)
	if workers == 1 || n <= grain {
		// Inline: every grain appends into one exact-capacity slice and
		// one arena, with no handoff buffers.
		out := make([]Candidate, 0, n)
		arena := newArena(n)
		for start := 0; start < n; start += grain {
			if out, err = p.processChunk(ctx, start, min(start+grain, n), out, &arena); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return exploreChunks(ctx, p, n, grain, workers)
}

// Enumerate collects the full exploration without a cancellation
// context — ExploreContext with context.Background().
//
//reprolint:ctxshim documented no-context convenience wrapper; request paths use ExploreContext
func (e Explorer) Enumerate() ([]Candidate, error) {
	return e.ExploreContext(context.Background())
}

// Enumerate analyzes every combination in the space using the parallel
// engine with default settings. Unknown axis values — including
// algorithm names the catalog has never registered — are errors;
// combinations with no performance-table entry (a registered algorithm
// never measured on a platform) are skipped silently, as they are not
// buildable systems. Other analysis errors abort the exploration.
func Enumerate(cat *catalog.Catalog, space Space, cons Constraints) ([]Candidate, error) {
	return Explorer{Catalog: cat, Space: space, Constraints: cons}.Enumerate()
}
