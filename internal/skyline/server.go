package skyline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/plot"
	"repro/internal/store"
	"repro/internal/units"
)

// Server serves the Skyline tool over HTTP.
type Server struct {
	cat *catalog.Catalog
	mux *http.ServeMux
	// adm is the admission layer for the engine-driven endpoints: a
	// bounded deadline-aware FIFO queue over the slot pool, per-client
	// quotas, and the Retry-After/saturation estimates.
	adm *admitter
	// metrics backs /metrics and the panic-recovery middleware.
	metrics *serverMetrics
	// maxWorkers caps one request's exploration worker pool.
	maxWorkers int
	// defaultTimeout bounds engine-driven requests without a timeout=
	// knob, and caps the knob. 0 = no deadline.
	defaultTimeout time.Duration
	// store is the persistent result tier (nil = off): completed
	// /explore and /grid.svg responses spill as content-addressed
	// artifacts and repeat requests are served from disk — across
	// restarts — instead of the engine. catRev is the catalog
	// fingerprint baked into every store key.
	store  *store.Store
	catRev string
	// spaces holds the compiled /explore design spaces, one per recent
	// axis selection, each with its pre-encoded line prefixes.
	spaces spaceTable
}

// defaultDegradeTopK is the saturation cap on unbounded /explore
// responses: large enough to keep the ranking useful, small enough
// that a degraded response costs a selection pass instead of a full
// streamed space.
const defaultDegradeTopK = 50

// Options tune a Server beyond its catalog. The zero value preserves
// the permissive defaults: no in-flight admission limit, no request
// deadline, no quotas, and per-request workers capped at GOMAXPROCS.
type Options struct {
	// Deprecated: ignored. The page endpoints call core.Analyze
	// directly, which is no slower than a cache probe. The field
	// remains only until perfbench stops setting it.
	Cache *core.Cache
	// MaxInflight bounds how many engine-driven requests (/explore,
	// /grid.svg, /sweep.svg) may run concurrently. Excess requests wait
	// in a bounded FIFO queue (see QueueDepth) until a slot frees or
	// their deadline expires; only a full queue sheds with 429.
	// 0 = unlimited.
	MaxInflight int
	// QueueDepth bounds the admission wait queue. 0 selects the default
	// (4×MaxInflight); negative disables queueing entirely, restoring
	// the previous instant-shed behavior. Ignored when MaxInflight is 0.
	QueueDepth int
	// DefaultTimeout is the deadline applied to engine-driven requests
	// that do not carry a timeout= query knob, and the upper clamp on
	// the knob. 0 = no deadline and an unclamped knob.
	DefaultTimeout time.Duration
	// ClientRPS enables per-client token-bucket quotas refilling at
	// this rate (requests/second), keyed by X-API-Key or remote
	// address. Over-quota requests are shed first under saturation, and
	// the lightweight analysis endpoints answer 429 outright. A bucket
	// holds max(1, 2×ClientRPS) tokens. 0 disables quotas.
	ClientRPS float64
	// MaxWorkersPerRequest clamps the workers= query knob (and the
	// default pool size) so one client cannot monopolize the cores.
	// 0 or anything above GOMAXPROCS means GOMAXPROCS.
	MaxWorkersPerRequest int
	// Store enables the persistent result tier (docs/PERSISTENCE.md):
	// completed /explore and /grid.svg responses are written as
	// checksummed, content-addressed artifacts, and repeat requests —
	// including after a restart over the same directory — are served
	// from disk without re-running the engine. A constraint-tightened
	// streaming /explore is answered by filtering its stored
	// unconstrained superset. Nil disables the tier.
	Store *store.Store
}

// NewServer builds a server over the given catalog (nil = default
// catalog) with default Options.
func NewServer(cat *catalog.Catalog) *Server { return NewServerWith(cat, Options{}) }

// NewServerWith builds a server over the given catalog (nil = default
// catalog) with explicit limits.
func NewServerWith(cat *catalog.Catalog, opt Options) *Server {
	if cat == nil {
		cat = catalog.Default()
	}
	maxWorkers := runtime.GOMAXPROCS(0)
	if opt.MaxWorkersPerRequest > 0 && opt.MaxWorkersPerRequest < maxWorkers {
		maxWorkers = opt.MaxWorkersPerRequest
	}
	queueCap := opt.QueueDepth
	if queueCap == 0 {
		queueCap = 4 * opt.MaxInflight
	}
	s := &Server{
		cat:            cat,
		mux:            http.NewServeMux(),
		adm:            newAdmitter(opt.MaxInflight, queueCap, newBuckets(opt.ClientRPS)),
		metrics:        newServerMetrics(),
		maxWorkers:     maxWorkers,
		defaultTimeout: opt.DefaultTimeout,
		store:          opt.Store,
	}
	if s.store != nil {
		// Computed once: the fingerprint walks the whole catalog, and
		// every store key embeds it so a catalog swap invalidates by
		// key instead of by wiping the store.
		s.catRev = cat.Fingerprint()
	}
	s.handle("/", s.handlePage)
	s.handle("/plot.svg", s.handlePlot)
	s.handle("/api/analyze", s.handleAnalyze)
	s.handle("/compare.svg", s.handleCompareSVG)
	s.handle("/api/compare", s.handleCompare)
	s.handle("/sweep.svg", s.handleSweep)
	s.handle("/explore", s.handleExplore)
	s.handle("/grid.svg", s.handleGrid)
	s.handle("/healthz", s.handleHealthz)
	s.handle("/metrics", s.handleMetrics)
	return s
}

// requestContext derives the work-scoping context for one request:
// the timeout= query knob (a Go duration like "1.5s", or bare
// seconds) bounded above by the server's default timeout, or the
// default itself when the knob is absent. The returned cancel must be
// called when the request finishes.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.defaultTimeout
	if ts := r.URL.Query().Get("timeout"); ts != "" {
		td, err := time.ParseDuration(ts)
		if err != nil {
			if sec, serr := strconv.ParseFloat(ts, 64); serr == nil {
				td, err = time.Duration(sec*float64(time.Second)), nil
			}
		}
		if err != nil || td <= 0 {
			return nil, nil, fmt.Errorf("skyline: parameter timeout must be a positive duration (e.g. 500ms, 2s, or bare seconds), got %q", ts)
		}
		if s.defaultTimeout > 0 && td > s.defaultTimeout {
			td = s.defaultTimeout
		}
		d = td
	}
	if d <= 0 {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// admitHeavy reserves an exploration slot for an engine-driven
// request, queueing under ctx's deadline. On admission the caller
// must defer release; otherwise the shed response (or none, for a
// vanished client) has already been written.
func (s *Server) admitHeavy(ctx context.Context, w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	res := s.adm.admit(ctx, clientKey(r))
	if res.release != nil {
		return res.release, true
	}
	if res.status != 0 {
		w.Header().Set("Retry-After", strconv.Itoa(res.retryAfter))
		http.Error(w, res.message, res.status)
	}
	return nil, false
}

// admitLight meters the cheap analysis endpoints against the
// per-client quota only — they hold no exploration slot and never
// queue, but a client hammering them still spends its tokens.
func (s *Server) admitLight(w http.ResponseWriter, r *http.Request) bool {
	if s.adm.quotas.allow(clientKey(r)) {
		return true
	}
	s.adm.shedOverQuota.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfter()))
	http.Error(w, "client is over its request quota; retry shortly", http.StatusTooManyRequests)
	return false
}

// engineError answers an engine-driven request that failed: a
// vanished client gets nothing, an expired deadline gets 503 with a
// Retry-After (the work was sound; the server was slow), and anything
// else is a request defect worth a 400.
func (s *Server) engineError(w http.ResponseWriter, ctx context.Context, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) && ctx.Err() != nil:
		s.adm.shedDeadline.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfter()))
		http.Error(w, "request deadline expired during exploration; retry with a longer timeout", http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled):
		// client is gone; nothing left to tell it
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// HealthJSON is the /healthz response shape: liveness plus the
// admission-control and store gauges.
type HealthJSON struct {
	Status string `json:"status"`
	// Deprecated: always zero and never encoded; the server keeps no
	// analysis cache. The field remains only until perfbench stops
	// reading it.
	Cache core.CacheStats `json:"-"`
	// InflightActive counts held exploration slots; MaxInflight is the
	// slot pool size (0 = unlimited).
	InflightActive int `json:"inflight_active"`
	MaxInflight    int `json:"max_inflight"`
	// QueueDepth/QueueCapacity describe the admission wait queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Rejected totals every shed (queue full, over quota, deadline).
	Rejected             uint64 `json:"rejected"`
	Degraded             uint64 `json:"degraded"`
	Panics               uint64 `json:"panics"`
	QuotaClients         int    `json:"quota_clients"`
	MaxWorkersPerRequest int    `json:"max_workers_per_request"`
	// Store carries the persistent result tier's gauges (artifacts,
	// bytes, hit/quarantine/error counters, degraded state); absent
	// when the tier is off.
	Store *store.Stats `json:"store,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := HealthJSON{
		Status:               "ok",
		InflightActive:       int(s.adm.active.Load()),
		MaxInflight:          s.adm.capacity,
		QueueDepth:           int(s.adm.depth.Load()),
		QueueCapacity:        s.adm.queueCap,
		Rejected:             s.adm.sheds(),
		Degraded:             s.adm.degradedTotal.Load(),
		Panics:               s.metrics.panics.Load(),
		QuotaClients:         s.adm.quotas.clients(),
		MaxWorkersPerRequest: s.maxWorkers,
	}
	if s.store != nil {
		ss := s.store.Stats()
		out.Store = &ss
	}
	writeJSON(w, out)
}

// writeJSON marshals v to memory before touching the response, for
// the same reason renderSVG buffers: an http.Error issued after the
// first body byte splices error text onto a committed 200. Encoding
// first means the client sees either a complete JSON document or a
// clean 500, never a hybrid. (The respwrite analyzer flagged the
// previous encode-then-Error shape in three handlers.)
func writeJSON(w http.ResponseWriter, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)+1))
	_, _ = w.Write(append(buf, '\n')) // Encoder-compatible framing; a failure means the client left
}

// renderSVG renders a figure to memory before touching the response.
// A render can fail (an empty or all-NaN figure), and an http.Error
// issued after the first byte of a 200 body would splice error text
// into the image — clients must see either a complete chart or a clean
// 500, never a corrupt hybrid. The figure appends into one buffer
// sized from its element counts, and that buffer is the body; handleGrid
// renders the same way and keeps the buffer to persist it.
func renderSVG(w http.ResponseWriter, fig interface{ AppendSVG([]byte) ([]byte, error) }) {
	body, err := fig.AppendSVG(nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a write failure here means the client left
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, err := ParseSweep(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Workers, err = s.requestWorkers(r.URL.Query()); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer cancel()
	release, ok := s.admitHeavy(ctx, w, r)
	if !ok {
		return
	}
	defer release()
	w.Header().Set("X-Explore-Workers", strconv.Itoa(req.Workers))
	ch, err := req.Run(ctx, s.cat)
	if err != nil {
		s.engineError(w, ctx, err)
		return
	}
	renderSVG(w, ch)
}

func (s *Server) handleCompareSVG(w http.ResponseWriter, r *http.Request) {
	if !s.admitLight(w, r) {
		return
	}
	cmp, err := ParseComparison(s.cat, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	renderSVG(w, cmp.Chart())
}

// CompareJSON is the /api/compare response shape.
type CompareJSON struct {
	Rows   []CompareRow `json:"rows"`
	Winner string       `json:"winner"`
}

func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	if !s.admitLight(w, r) {
		return
	}
	cmp, err := ParseComparison(s.cat, r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := CompareJSON{Rows: cmp.Table()}
	if i, ok := cmp.Winner(); ok {
		out.Winner = cmp.Analyses[i].Config.Name
	}
	writeJSON(w, out)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// analysisFor runs the model for a request.
func (s *Server) analysisFor(r *http.Request) (core.Analysis, error) {
	p, err := ParseParams(r.URL.Query())
	if err != nil {
		return core.Analysis{}, err
	}
	cfg, err := p.Config(s.cat)
	if err != nil {
		return core.Analysis{}, err
	}
	return core.Analyze(cfg)
}

// JSONFloat is a float64 whose non-finite values encode as JSON null.
// Legitimate analyses produce them — an over-provisioned design with
// infinite compute headroom has GapFactor = +Inf, and Inf-rate knobs
// make ActionHz infinite — but encoding/json rejects ±Inf and NaN
// outright ("json: unsupported value"), which used to turn those
// analyses into 500s mid-response. null is the wire spelling of "off
// the scale"; clients decode it as absent.
type JSONFloat float64

// MarshalJSON implements json.Marshaler with appendJSONFloat, the one
// float format shared with the /explore line encoder.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	return appendJSONFloat(nil, float64(f)), nil
}

// UnmarshalJSON implements json.Unmarshaler: null round-trips back to
// +Inf — the only non-finite value the analysis fields produce in
// practice (a gap or rate beyond any finite scale).
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = JSONFloat(math.Inf(1))
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}

// AnalysisJSON is the /api/analyze response shape. Every float field
// can in principle go non-finite on extreme configurations, so all of
// them sanitize through JSONFloat.
type AnalysisJSON struct {
	Name            string    `json:"name"`
	AMaxMS2         JSONFloat `json:"a_max_ms2"`
	ActionHz        JSONFloat `json:"action_hz"`
	Bottleneck      string    `json:"bottleneck"`
	KneeHz          JSONFloat `json:"knee_hz"`
	KneeVelocity    JSONFloat `json:"knee_velocity_ms"`
	RoofMS          JSONFloat `json:"roof_ms"`
	SafeVelocityMS  JSONFloat `json:"safe_velocity_ms"`
	Bound           string    `json:"bound"`
	Class           string    `json:"class"`
	GapFactor       JSONFloat `json:"gap_factor"`
	PayloadG        JSONFloat `json:"payload_g"`
	OptimizationTip []string  `json:"optimization_tips"`
}

// Tips generates the analysis pane's optimization guidance — the §V
// "analysis and guidance area".
func Tips(an core.Analysis) []string {
	var tips []string
	switch an.Bound {
	case core.PhysicsBound:
		tips = append(tips,
			"The UAV is physics-bound: faster compute or sensors cannot raise the safe velocity.",
			"Raise the roofline instead: shed payload weight (smaller heatsink, lighter board) or add thrust.")
		if an.Class == core.OverProvisioned && !math.IsInf(an.GapFactor, 1) {
			tips = append(tips, fmt.Sprintf(
				"Compute is over-provisioned by %.1f×: trade the surplus throughput for a lower TDP to shrink the heatsink.",
				an.GapFactor))
		}
	case core.SensorBound:
		tips = append(tips, fmt.Sprintf(
			"The sensor's %.0f Hz frame rate caps the pipeline below the %.1f Hz knee: a faster sensor lifts the ceiling.",
			an.Config.SensorRate.Hertz(), an.Knee.Throughput.Hertz()))
	case core.ComputeBound:
		tips = append(tips, fmt.Sprintf(
			"Compute-bound: improve the algorithm/compute throughput by %.1f× to reach the %.1f Hz knee (+%.2f m/s).",
			an.GapFactor, an.Knee.Throughput.Hertz(), an.VelocityHeadroom.MetersPerSecond()))
	case core.ControlBound:
		tips = append(tips, "The flight controller loop is the bottleneck — raise its rate (typical stacks run 1 kHz).")
	}
	if an.Class == core.OptimalDesign {
		tips = append(tips, "This is a balanced design: the action throughput sits at the knee point.")
	}
	return tips
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !s.admitLight(w, r) {
		return
	}
	an, err := s.analysisFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out := AnalysisJSON{
		Name:            an.Config.Name,
		AMaxMS2:         JSONFloat(an.AMax.MetersPerSecond2()),
		ActionHz:        JSONFloat(an.Action.Hertz()),
		Bottleneck:      an.BottleneckStage,
		KneeHz:          JSONFloat(an.Knee.Throughput.Hertz()),
		KneeVelocity:    JSONFloat(an.Knee.Velocity.MetersPerSecond()),
		RoofMS:          JSONFloat(an.Roof.MetersPerSecond()),
		SafeVelocityMS:  JSONFloat(an.SafeVelocity.MetersPerSecond()),
		Bound:           an.Bound.String(),
		Class:           an.Class.String(),
		GapFactor:       JSONFloat(an.GapFactor),
		PayloadG:        JSONFloat(an.Config.Payload.Grams()),
		OptimizationTip: Tips(an),
	}
	writeJSON(w, out)
}

// Chart builds the F-1 plot for an analysis — exported so the CLI can
// render the same figure as ASCII.
func Chart(an core.Analysis) *plot.Chart {
	m := core.Model{Accel: an.AMax, Range: an.Config.SensorRange, KneeFraction: an.Config.KneeFraction}
	fMax := 4 * an.Knee.Throughput.Hertz()
	if an.Action.Hertz() > fMax && !math.IsInf(an.Action.Hertz(), 1) {
		fMax = 2 * an.Action.Hertz()
	}
	fMin := fMax / 1e4
	curve := m.Curve(units.Hertz(fMin), units.Hertz(fMax), 300, true)
	ideal := m.RooflineCurve(units.Hertz(fMin), units.Hertz(fMax), 300, true)
	ch := &plot.Chart{
		Title:  "F-1: " + an.Config.Name,
		XLabel: "action throughput (Hz)",
		YLabel: "safe velocity (m/s)",
		LogX:   true,
	}
	cx, cy := make([]float64, len(curve)), make([]float64, len(curve))
	ix, iy := make([]float64, len(curve)), make([]float64, len(curve))
	for i := range curve {
		cx[i] = curve[i].Throughput.Hertz()
		cy[i] = curve[i].Velocity.MetersPerSecond()
		ix[i] = ideal[i].Throughput.Hertz()
		iy[i] = ideal[i].Velocity.MetersPerSecond()
	}
	ch.Series = append(ch.Series,
		plot.Series{Name: "Eq. 4", X: cx, Y: cy},
		plot.Series{Name: "idealized roofline", X: ix, Y: iy, Dashed: true})
	ch.Markers = append(ch.Markers,
		plot.Marker{X: an.Knee.Throughput.Hertz(), Y: an.Knee.Velocity.MetersPerSecond(), Label: "knee"})
	if !math.IsInf(an.Action.Hertz(), 1) {
		ch.Markers = append(ch.Markers,
			plot.Marker{X: an.Action.Hertz(), Y: an.SafeVelocity.MetersPerSecond(), Label: "design point"})
	}
	for _, c := range an.Ceilings {
		ch.Ceilings = append(ch.Ceilings, plot.Ceiling{
			Y: c.Velocity.MetersPerSecond(), FromX: c.Throughput.Hertz(),
			Label: c.Source + " ceiling",
		})
	}
	return ch
}

func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request) {
	if !s.admitLight(w, r) {
		return
	}
	an, err := s.analysisFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	renderSVG(w, Chart(an))
}

// pageData feeds the HTML template.
type pageData struct {
	UAVs       []string
	Computes   []string
	Algorithms []string
	// Query is the request's query string, re-encoded so every key and
	// value is percent-escaped. The template.URL marker keeps
	// html/template from a second, structure-destroying escape of the
	// = and & separators — safe because url.Values.Encode emits only
	// URL-safe characters.
	Query    template.URL
	Analysis *core.Analysis
	Tips     []string
	Summary  string
	Error    string
}

func (s *Server) handlePage(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	// Re-encode the query through url.Values: every key and value is
	// percent-escaped (hostile input cannot smuggle markup into the
	// page) while the key=value&... structure survives, unlike escaping
	// the raw string wholesale. ParseQuery returns the well-formed
	// pairs even on error; keep them — analysisFor sees the same
	// surviving pairs, so the plot image stays in sync with the
	// analysis pane.
	query, _ := url.ParseQuery(r.URL.RawQuery)
	data := pageData{
		UAVs:       s.cat.UAVNames(),
		Computes:   s.cat.ComputeNames(),
		Algorithms: s.cat.AlgorithmNames(),
		Query:      template.URL(query.Encode()),
	}
	an, err := s.analysisFor(r)
	if err != nil {
		data.Error = err.Error()
	} else {
		data.Analysis = &an
		data.Tips = Tips(an)
		data.Summary = an.Summary()
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTemplate.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
