package main

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/plot"
	"repro/internal/skyline"
	"repro/internal/store"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are nanoseconds since the trace began.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // index within the request, -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	// Path marks a call on the handler's blocking path; the durations of
	// the root's path children add up against the HTTP latency. Other
	// spans are side probes of the same request.
	Path bool `json:"path"`
	// N counts the items the call covered (candidates, cells, samples).
	N int `json:"n,omitempty"`
}

// reqTrace collects one request's spans; one goroutine owns it.
type reqTrace struct {
	t0    time.Time
	req   int
	spans []span
}

func (rt *reqTrace) begin(name string, parent int, path bool) int {
	id := len(rt.spans)
	rt.spans = append(rt.spans, span{Req: rt.req, ID: id, Parent: parent, Name: name, Path: path, Start: int64(time.Since(rt.t0))})
	return id
}

func (rt *reqTrace) end(id, n int) {
	rt.spans[id].End = int64(time.Since(rt.t0))
	rt.spans[id].N = n
}

// setSelfTimes fills Self for one request's spans: a span's duration
// minus the part of its interval that its children cover (overlapping
// children count once).
func setSelfTimes(spans []span) {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		p := &spans[i]
		iv := kids[p.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = p.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		p.Self = p.End - p.Start - covered
	}
}

// pathTime sums the durations of the root's direct path children.
func pathTime(spans []span) time.Duration {
	var t int64
	for _, s := range spans {
		if s.Path && s.Parent == 0 {
			t += s.End - s.Start
		}
	}
	return time.Duration(t)
}

// replayer repeats, for one request, the calls into each layer's public
// functions that the server's handler makes, against twin state (its
// own cache and store, built the same way as the server's) so that the
// replay and the HTTP request never warm each other. Steps the handler
// performs through unexported code — NDJSON encoding, flushing, the
// stored-superset filter, HTTP itself — are not replayed; they are the
// residual.
type replayer struct {
	cat     *catalog.Catalog
	cache   *core.Cache
	st      *store.Store // nil when the workload runs without a store
	workers int
}

// probeSample is how many candidates the per-candidate probes time.
const probeSample = 16

// replay traces req and returns the request's spans, or an error if a
// replayed call failed where the server's succeeded.
func (rp *replayer) replay(ctx context.Context, t0 time.Time, seq int, req request, body []byte) ([]span, error) {
	rt := &reqTrace{t0: t0, req: seq}
	root := rt.begin("request", -1, false)
	var err error
	switch req.path {
	case "/explore":
		err = rp.explore(ctx, rt, root, req, body)
	case "/grid.svg":
		err = rp.grid(ctx, rt, root, req)
	case "/api/analyze", "/plot.svg":
		err = rp.analysis(ctx, rt, root, req)
	default:
		err = fmt.Errorf("no replay for %s", req.path)
	}
	rt.end(root, 0)
	setSelfTimes(rt.spans)
	return rt.spans, err
}

// storeProbe replays the handler's store lookups: the exact key, then,
// for a constrained stream, its unconstrained superset. Twin keys are
// the request urls; only the artifact sizes, not the key grammar,
// shape the cost.
func (rp *replayer) storeProbe(rt *reqTrace, root int, req request, streaming, constrained bool) (served bool) {
	if rp.st == nil {
		return false
	}
	id := rt.begin("store.get", root, true)
	_, ok := rp.st.Get(req.url)
	rt.end(id, 1)
	if ok || !streaming || !constrained {
		return ok
	}
	id = rt.begin("store.get", root, true)
	_, ok = rp.st.Get(superset(req).url)
	rt.end(id, 1)
	return ok
}

// superset drops a stream's constraints.
func superset(req request) request {
	q := url.Values{}
	for k, v := range req.query {
		switch k {
		case "min_velocity_ms", "max_power_w", "max_payload_g":
		default:
			q[k] = v
		}
	}
	return newRequest(req.class, req.path, q)
}

func spaceSize(s dse.Space) int {
	return len(s.UAVs) * len(s.Computes) * len(s.Algorithms) * max(1, len(s.Sensors))
}

// runExplorer runs e as the handler does — ExploreContext when a
// selection pass follows, otherwise draining the stream — and returns
// every k-th candidate (all of them when the slate is selected).
func runExplorer(ctx context.Context, e dse.Explorer, selection bool, k int) ([]dse.Candidate, error) {
	if selection {
		return e.ExploreContext(ctx)
	}
	var keep []dse.Candidate
	i := 0
	for c, err := range e.Candidates(ctx) {
		if err != nil {
			return nil, err
		}
		if i%k == 0 {
			keep = append(keep, c)
		}
		i++
	}
	return keep, nil
}

func (rp *replayer) explore(ctx context.Context, rt *reqTrace, root int, req request, body []byte) error {
	id := rt.begin("skyline.parse", root, true)
	er, err := skyline.ParseExplore(rp.cat, req.query)
	rt.end(id, 1)
	if err != nil {
		return err
	}
	selection := er.TopK > 0 || len(er.Pareto) > 0
	if rp.storeProbe(rt, root, req, !selection, er.Constraints != (dse.Constraints{})) {
		return nil
	}
	n := spaceSize(er.Space)
	stride := max(1, n/probeSample)
	e := dse.Explorer{Catalog: rp.cat, Space: er.Space, Constraints: er.Constraints,
		Workers: rp.workers, Cache: rp.cache, Objective: er.Objective}
	id = rt.begin("dse.explore", root, true)
	cands, err := runExplorer(ctx, e, selection, stride)
	rt.end(id, n)
	if err != nil {
		return err
	}
	if selection {
		id = rt.begin("dse.select", root, true)
		if er.TopK > 0 {
			_ = dse.TopK(cands, er.Rank, er.TopK)
		} else if _, err := dse.ParetoFront(cands, er.Pareto...); err != nil {
			return err
		}
		rt.end(id, len(cands))
	}

	// Side probes. The serial run of a scored exploration uses another
	// seed: the same work, but none of the cache entries the pool run
	// just filled.
	serial := e
	serial.Workers = 1
	if er.Objective != nil {
		if serial.Objective, err = dse.NewObjective(er.ObjectiveName, rp.cat, er.Objective.Seed()^0x5bd1e995); err != nil {
			return err
		}
	}
	id = rt.begin("dse.explore_serial", root, false)
	_, err = runExplorer(ctx, serial, selection, stride)
	rt.end(id, n)
	if err != nil {
		return err
	}
	sample := make([]dse.Candidate, 0, probeSample)
	for i := 0; i < len(cands) && len(sample) < probeSample; i += max(1, len(cands)/probeSample) {
		sample = append(sample, cands[i])
	}
	if er.Objective != nil {
		out := make([]float64, len(er.Objective.Columns()))
		id = rt.begin("dse.objective_eval", root, false)
		for i := range sample {
			c := sample[i]
			if err := er.Objective.Evaluate(ctx, &c, er.Objective.Seed()+int64(i), out); err != nil {
				return err
			}
		}
		rt.end(id, len(sample))
	}
	id = rt.begin("core.cache_probe", root, false)
	for _, c := range sample {
		if er.Objective != nil {
			rp.cache.LookupScored(core.ScoreKey{Cfg: c.Analysis.Config, Objective: er.ObjectiveName, Seed: er.Objective.Seed()})
		} else {
			rp.cache.Lookup(c.Analysis.Config)
		}
	}
	rt.end(id, len(sample))
	id = rt.begin("core.analyze", root, false)
	for _, c := range sample {
		if _, err := core.Analyze(c.Analysis.Config); err != nil {
			return err
		}
	}
	rt.end(id, len(sample))

	if rp.st != nil {
		id = rt.begin("store.put", root, true)
		rp.st.Put(req.url, body)
		rt.end(id, len(body))
	}
	return nil
}

func (rp *replayer) grid(ctx context.Context, rt *reqTrace, root int, req request) error {
	id := rt.begin("skyline.parse", root, true)
	gr, err := skyline.ParseGrid(rp.cat, req.query)
	rt.end(id, 1)
	if err != nil {
		return err
	}
	if rp.storeProbe(rt, root, req, false, false) {
		return nil
	}
	id = rt.begin("skyline.grid", root, true)
	cfg, err := gr.Params.Config(rp.cat)
	if err != nil {
		return err
	}
	sw := rt.begin("dse.gridsweep", id, true)
	res, err := dse.GridSweepContext(ctx, cfg, gr.X, gr.XLo, gr.XHi, gr.NX, gr.Y, gr.YLo, gr.YHi, gr.NY, rp.workers)
	rt.end(sw, gr.NX*gr.NY)
	if err != nil {
		return err
	}
	hm := &plot.Heatmap{
		Title:  fmt.Sprintf("Grid: %s — %s × %s", cfg.Name, gr.X, gr.Y),
		XLabel: gr.X.String(),
		YLabel: gr.Y.String(),
		ZLabel: "v_safe (m/s)",
		Xs:     res.Xs,
		Ys:     res.Ys,
		Values: res.VelocityGrid(),
	}
	rt.end(id, gr.NX*gr.NY)
	var buf bytes.Buffer
	id = rt.begin("plot.svg", root, true)
	err = hm.SVG(&buf)
	rt.end(id, buf.Len())
	if err != nil {
		return err
	}
	if rp.st != nil {
		id = rt.begin("store.put", root, true)
		rp.st.Put(req.url, buf.Bytes())
		rt.end(id, buf.Len())
	}
	return nil
}

func (rp *replayer) analysis(ctx context.Context, rt *reqTrace, root int, req request) error {
	id := rt.begin("skyline.parse", root, true)
	p, err := skyline.ParseParams(req.query)
	rt.end(id, 1)
	if err != nil {
		return err
	}
	id = rt.begin("core.analyze_cached", root, true)
	cfg, err := p.Config(rp.cat)
	var an core.Analysis
	if err == nil {
		an, err = rp.cache.AnalyzeContext(ctx, cfg)
	}
	rt.end(id, 1)
	if err != nil || req.path != "/plot.svg" {
		return err
	}
	var buf bytes.Buffer
	id = rt.begin("plot.svg", root, true)
	err = skyline.Chart(an).SVG(&buf)
	rt.end(id, buf.Len())
	return err
}

// spanLog is the whole traced run's spans, appended under a lock by
// the client goroutines and written out when the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	// residual and share are, per traced request, the HTTP service time
	// minus the replayed path spans, and that remainder's share of the
	// service time.
	residual []float64
	share    []float64
}

func (l *spanLog) add(spans []span, service time.Duration) {
	res := service - pathTime(spans)
	l.mu.Lock()
	l.spans = append(l.spans, spans...)
	l.residual = append(l.residual, msOf(res))
	l.share = append(l.share, float64(res)/float64(service))
	l.mu.Unlock()
}

// values returns, for each span named name, its duration in unit,
// divided by its item count when perItem is set.
func (l *spanLog) values(name string, unit time.Duration, perItem bool) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		v := float64(s.End-s.Start) / float64(unit)
		if perItem {
			if s.N == 0 {
				continue
			}
			v /= float64(s.N)
		}
		out = append(out, v)
	}
	return out
}

// speedups pairs each request's pool and serial explorations.
func (l *spanLog) speedups() []float64 {
	pool := make(map[int]int64)
	for _, s := range l.spans {
		if s.Name == "dse.explore" {
			pool[s.Req] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range l.spans {
		if p := pool[s.Req]; s.Name == "dse.explore_serial" && p > 0 {
			out = append(out, float64(s.End-s.Start)/float64(p))
		}
	}
	return out
}
