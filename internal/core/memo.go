package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/faultinject"
)

// Cache memoizes Analyze results keyed on a ScoreKey — the full Config
// value plus an objective and seed, zero for every entry the cache
// fills — so repeated analyses of the same resolved configuration pay
// the model cost once.
//
// No production path uses it: a direct Analyze is no slower than a
// warm probe, so the exploration engine recomputes from precomputed
// partials and the Skyline server calls Analyze. The type and its
// entry points (NewCache, CacheOff, ScoreKey, Lookup, LookupScored,
// AnalyzeContext) remain only because perfbench still compiles
// against them; they go once perfbench no longer does.
//
// The cache is sharded: the Config hashes to one of a power-of-two
// number of independently locked segments, so concurrent exploration
// sweeps spread their lookups instead of contending on a single lock.
// Each shard is bounded and evicts with a segmented LRU: new entries
// enter a probationary list and only a second hit promotes them to the
// protected list, so a one-pass cold scan (a huge /explore sweep)
// churns through probation without displacing the hot working set —
// unlike the previous generation-clearing cache, which dropped every
// entry at once when full. Misses fill with singleflight: concurrent
// misses of one configuration coalesce onto a single in-flight
// analysis (a per-shard wait registry), so a thundering herd of
// identical requests computes once and shares the result; with
// AnalyzeContext the coalesced wait is context-aware — a follower
// whose own request dies abandons the wait while the leader completes
// and fills. Lookup probes the hit path without committing to a fill.
// Hits, misses, coalesced waits and evictions are counted; Stats
// returns a snapshot.
//
// Cached Analysis values are shared between callers: treat them as
// read-only (in particular, do not mutate the Ceilings slice of a
// cached result).
//
// A Config is memoizable when its AccelModel's dynamic type is
// comparable (all models in internal/physics are — structs of scalars
// or pointers). Configs carrying a non-comparable model fall through to
// a direct Analyze call rather than panicking on the map insert.
//
// The zero Cache is a valid pass-through that never memoizes (CacheOff
// returns a canonical one); construct with NewCache for a real cache.
// A nil *Cache is likewise legal and simply disables memoization, so
// callers can thread an optional cache without branching.
type Cache struct {
	mask   uint64
	shards []shard
}

// ScoreKey is the cache's entry key: the configuration plus the
// objective and seed it was scored under. The zero Objective/Seed is
// the plain (unscored) F-1 analysis, the only kind any entry point
// fills; LookupScored probes the other shapes.
type ScoreKey struct {
	Cfg Config
	// Objective names the evaluator ("" = plain analysis, no metrics).
	Objective string
	// Seed is the evaluator's Monte-Carlo seed (0 for deterministic
	// objectives).
	Seed int64
}

// shard is one independently locked cache segment: a map for lookup,
// two intrusive LRU lists (probation and protected) for the segmented
// eviction order, and a singleflight registry of analyses currently in
// flight so concurrent misses of one configuration coalesce.
type shard struct {
	mu        sync.Mutex
	entries   map[ScoreKey]*entry
	inflight  map[ScoreKey]*flight
	probation lruList
	protected lruList
	// capacity bounds len(entries); protectedCap bounds the protected
	// list (the remainder is probation churn room).
	capacity     int
	protectedCap int
	hits         uint64
	misses       uint64
	coalesced    uint64
	evictions    uint64
	fills        uint64
}

// flight is one in-progress analysis. The first miss of a ScoreKey (the
// leader) creates it, computes, then publishes the result and closes
// done; concurrent misses of the same key (followers) wait on done
// and share the leader's result instead of re-analyzing. Errors are
// shared with the waiting followers too — a fill is deterministic in
// its key, so every follower would have hit the same error — but,
// as ever, never cached.
type flight struct {
	done chan struct{}
	an   Analysis
	err  error
}

// entry is one memoized analysis, linked into exactly one of its
// shard's two LRU lists.
type entry struct {
	key        ScoreKey
	an         Analysis
	prev, next *entry
	protected  bool
	// ref is the protected segment's second-chance bit: set on every
	// protected hit (one store — far cheaper than exact LRU surgery on
	// the hot path), consumed by the eviction rotation.
	ref bool
}

// shardFor routes a key to its segment. The route mixes only the cheap
// scalar knobs (not the airframe or the accel-model interface, which
// would cost a full runtime hash) plus the objective identity:
// correctness never depends on it — every shard map is keyed by the
// complete ScoreKey — only the load spread does, and real design spaces
// vary exactly these knobs. The shard index must be a pure function of
// the key so concurrent lookups of one configuration meet at the same
// lock.
func (c *Cache) shardFor(k ScoreKey) *shard {
	const mix = 0x9E3779B97F4A7C15 // Fibonacci hashing multiplier
	cfg := &k.Cfg
	h := math.Float64bits(float64(cfg.Payload)) ^ uint64(len(cfg.Name))
	h = (h + math.Float64bits(float64(cfg.ComputeRate))) * mix
	h = (h + math.Float64bits(float64(cfg.SensorRate))) * mix
	h += math.Float64bits(float64(cfg.SensorRange))
	h = (h + uint64(len(k.Objective)) + uint64(k.Seed)) * mix
	return &c.shards[(h>>32)&c.mask]
}

// lruList is an intrusive doubly-linked list ordered most- to
// least-recently used. Intrusive (links live in the entry) so hits and
// evictions allocate nothing.
type lruList struct {
	front, back *entry
	n           int
}

func (l *lruList) pushFront(e *entry) {
	e.prev, e.next = nil, l.front
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
	l.n++
}

func (l *lruList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lruList) moveToFront(e *entry) {
	if l.front == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// DefaultCacheLimit bounds a NewCache-constructed cache's entry count.
const DefaultCacheLimit = 1 << 16

// maxShards caps the shard count; beyond ~128 segments the lock
// striping gains nothing while the fixed footprint keeps growing.
const maxShards = 128

// NewCache returns an empty cache bounded to DefaultCacheLimit entries.
func NewCache() *Cache { return NewCacheLimit(DefaultCacheLimit) }

// NewCacheLimit returns an empty cache bounded to limit entries
// (limit <= 0 selects DefaultCacheLimit). The limit is distributed
// across the shards, so an individual shard evicts slightly before the
// whole cache is full.
func NewCacheLimit(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	// Enough shards to spread GOMAXPROCS concurrent lookups, but never
	// so many that a shard drops below ~8 entries of churn room.
	n := 1
	for n < 4*runtime.GOMAXPROCS(0) && n < maxShards {
		n <<= 1
	}
	for n > 1 && limit/n < 8 {
		n >>= 1
	}
	c := &Cache{
		mask:   uint64(n - 1),
		shards: make([]shard, n),
	}
	base, rem := limit/n, limit%n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < rem {
			sh.capacity++
		}
		// 80/20 protected/probation split — the classic SLRU ratio:
		// most of the shard holds the proven working set, the rest is
		// churn room for one-hit wonders.
		sh.protectedCap = sh.capacity * 4 / 5
		sh.entries = make(map[ScoreKey]*entry)
		sh.inflight = make(map[ScoreKey]*flight)
	}
	return c
}

// CacheOff returns the canonical pass-through cache: Analyze always
// recomputes and nothing is retained. Use it where a *Cache is
// expected but memoization must be off (e.g. a benchmark isolating the
// computation).
func CacheOff() *Cache { return &cacheOff }

var cacheOff Cache

// analyzeFn computes an analysis on a cache miss. It is a package
// variable only so tests can count or stall the underlying computation;
// production code never reassigns it.
var analyzeFn = Analyze

// Analyze returns the memoized analysis for cfg, computing and caching
// it on a miss. Concurrent misses of the same configuration coalesce:
// the first caller analyzes while the rest wait for its result
// (singleflight), so a thundering herd of identical requests pays the
// model cost exactly once — the coalesced waits are counted in Stats.
// Errors are never cached (they are cheap to recompute and usually
// indicate a caller bug). Safe for concurrent use.
//
// Analyze is AnalyzeContext with context.Background(): the coalesced
// wait cannot be abandoned.
//
//reprolint:ctxshim documented no-context convenience wrapper; request paths use AnalyzeContext
func (c *Cache) Analyze(cfg Config) (Analysis, error) {
	return c.analyze(context.Background(), ScoreKey{Cfg: cfg})
}

// AnalyzeContext is Analyze with a context governing the singleflight
// wait: a follower coalesced onto another caller's in-flight analysis
// of the same configuration selects on its own ctx and abandons the
// wait with ctx.Err() when cancelled first. The leader is unaffected —
// it completes its analysis and fills the cache for future callers.
// (The leader's own computation is not interrupted by its ctx: analyses
// are pure CPU with no cancellation points, and an abandoned fill would
// strand the coalesced followers.)
func (c *Cache) AnalyzeContext(ctx context.Context, cfg Config) (Analysis, error) {
	return c.analyze(ctx, ScoreKey{Cfg: cfg})
}

// Lookup peeks for a memoized analysis: on a hit it counts the hit,
// refreshes cfg's eviction standing and returns the analysis; on an
// absence it returns false without counting a miss — a follow-up
// AnalyzeContext records the miss when it fills.
func (c *Cache) Lookup(cfg Config) (Analysis, bool) {
	an, _, ok := c.LookupScored(ScoreKey{Cfg: cfg})
	return an, ok
}

// LookupScored is Lookup over a full ScoreKey. No entry point fills a
// scored key any more (the exploration engine scores every candidate
// afresh), so a key with an objective or seed never hits and the
// returned metrics are always nil; the method remains as the
// per-candidate probe cost a scored replay measures.
func (c *Cache) LookupScored(key ScoreKey) (Analysis, []float64, bool) {
	if c == nil || len(c.shards) == 0 || !memoizable(key.Cfg) {
		return Analysis{}, nil, false
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		return Analysis{}, nil, false
	}
	sh.touch(e)
	an := e.an
	sh.mu.Unlock()
	return an, nil, true
}

// analyze is the shared implementation behind Analyze and
// AnalyzeContext; misses fill through the package-level analyzeFn
// (i.e. the full Analyze, reassignable only by tests).
func (c *Cache) analyze(ctx context.Context, key ScoreKey) (Analysis, error) {
	if c == nil || len(c.shards) == 0 || !memoizable(key.Cfg) {
		return Analyze(key.Cfg)
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.touch(e)
		an := e.an
		sh.mu.Unlock()
		return an, nil
	}
	sh.misses++
	if f, ok := sh.inflight[key]; ok {
		// A leader is already analyzing this exact key: wait for its
		// result instead of burning a second analysis — but no longer
		// than the follower's own request lives. ctx.Done() is nil for
		// context.Background(), so the uncancellable wait stays a
		// two-way select that can only take the done arm.
		sh.coalesced++
		sh.mu.Unlock()
		select {
		case <-f.done:
			return f.an, f.err
		case <-ctx.Done():
			return Analysis{}, ctx.Err()
		}
	}
	// errFlightAbandoned is what followers see if the leader never
	// publishes — i.e. analyzeFn panicked. It is pre-set and overwritten
	// on every normal path, so it can only escape through a panic.
	f := &flight{done: make(chan struct{}), err: errFlightAbandoned}
	sh.inflight[key] = f
	sh.mu.Unlock()

	// The cleanup is deferred so that a panicking analyzeFn (bad model
	// data) cannot strand the flight: the registry entry would otherwise
	// outlive the leader and every future Analyze of this key would
	// coalesce onto a flight that never completes.
	executed := false
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, key)
		if executed {
			// Fills counts the misses this leader actually computed.
			sh.fills++
		}
		if f.err == nil {
			// A leader for this key is unique, but an entry may still
			// exist if the key was evicted and re-inserted around an
			// earlier flight; keep the incumbent's LRU position.
			if _, ok := sh.entries[key]; !ok {
				sh.insert(key, f.an)
			}
		}
		sh.mu.Unlock()
		// Publish to followers only after f.an/f.err are set. The flight
		// leader owns done even though this deferred closure is not the
		// scope that made the channel.
		close(f.done) //reprolint:allow chandiscipline — the leader's deferred cleanup is the unique closer; followers only receive
	}()
	// The fault seam fires as the leader, inside the singleflight: an
	// armed error is shared with every coalesced follower, and an armed
	// panic unwinds through the deferred cleanup above — exactly the
	// paths the robustness tests need to reach on demand. A nil Fire
	// result must not touch f.err: the abandoned-flight sentinel has to
	// survive until a normal path overwrites it, or a panicking fill
	// would publish success to its followers.
	if ferr := faultinject.Fire(faultinject.SiteCacheFill); ferr != nil {
		f.err = ferr
	} else {
		executed = true
		f.an, f.err = analyzeFn(key.Cfg)
	}
	return f.an, f.err
}

// errFlightAbandoned surfaces to singleflight followers whose leader
// died (panicked) before publishing a result; the next caller simply
// becomes a fresh leader.
var errFlightAbandoned = errors.New("f1: cache: in-flight analysis abandoned")

// touch records a hit and advances e in the segmented order: a
// probationary entry's second access promotes it to protected (demoting
// the oldest protected entry back to probation when that segment is
// full). A hit on an already-protected entry — the hot steady state —
// only sets the second-chance bit; the eviction rotation restores
// recency order lazily, so the common path stays one store instead of
// six pointer writes. Callers hold the shard lock.
func (sh *shard) touch(e *entry) {
	sh.hits++
	switch {
	case e.protected:
		if !e.ref {
			e.ref = true
		}
	case sh.protectedCap == 0:
		// Shard too small for two segments: plain LRU in probation.
		sh.probation.moveToFront(e)
	default:
		sh.probation.remove(e)
		e.protected = true
		e.ref = false
		sh.protected.pushFront(e)
		if sh.protected.n > sh.protectedCap {
			demoted := sh.oldestProtected()
			sh.protected.remove(demoted)
			demoted.protected = false
			demoted.ref = false
			sh.probation.pushFront(demoted)
		}
	}
}

// oldestProtected returns the protected entry to demote or evict,
// giving recently hit entries a second chance: the rotation clears ref
// bits and re-files their holders to the front, converging on the
// least-recently-hit entry (bounded by one full lap).
func (sh *shard) oldestProtected() *entry {
	for i := sh.protected.n; i > 1; i-- {
		back := sh.protected.back
		if !back.ref {
			return back
		}
		back.ref = false
		sh.protected.moveToFront(back)
	}
	return sh.protected.back
}

// insert adds a new probationary entry, evicting one victim first when
// the shard is full. Callers hold the shard lock.
func (sh *shard) insert(key ScoreKey, an Analysis) {
	if sh.capacity == 0 {
		return
	}
	if len(sh.entries) >= sh.capacity {
		victim := sh.probation.back
		if victim != nil {
			sh.probation.remove(victim)
		} else {
			victim = sh.oldestProtected()
			sh.protected.remove(victim)
		}
		delete(sh.entries, victim.key)
		sh.evictions++
	}
	e := &entry{key: key, an: an}
	sh.entries[key] = e
	sh.probation.pushFront(e)
}

// Memoizes reports whether this cache retains anything at all: false
// for a nil *Cache and for the zero/CacheOff pass-through. Hot loops
// use it to skip cache plumbing entirely when memoization is off.
func (c *Cache) Memoizes() bool { return c != nil && len(c.shards) > 0 }

// Len reports the number of memoized configurations.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time cache snapshot. Counters are cumulative
// since construction; Entries and the capacity fields describe the
// current state.
type CacheStats struct {
	Shards   int    `json:"shards"`
	Capacity int    `json:"capacity"`
	Entries  int    `json:"entries"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	// Coalesced counts the subset of Misses that waited on another
	// caller's in-flight analysis of the same configuration
	// (singleflight) instead of recomputing it.
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	// Fills counts the misses whose singleflight leader actually ran
	// the analysis. It excludes coalesced waits and injected fill
	// faults.
	Fills uint64 `json:"fills"`
}

// HitRate is Hits over all lookups, 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats aggregates the per-shard counters. The snapshot is
// shard-by-shard consistent, not globally atomic: under concurrent
// traffic the totals may mix moments, but every counter is monotone.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Capacity += sh.capacity
		st.Entries += len(sh.entries)
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Coalesced += sh.coalesced
		st.Evictions += sh.evictions
		st.Fills += sh.fills
		sh.mu.Unlock()
	}
	return st
}

// contains reports whether cfg is currently memoized, without touching
// the LRU order or the counters (a test / diagnostics probe).
func (c *Cache) contains(cfg Config) bool {
	if c == nil || len(c.shards) == 0 || !memoizable(cfg) {
		return false
	}
	key := ScoreKey{Cfg: cfg}
	sh := c.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.entries[key]
	sh.mu.Unlock()
	return ok
}

// comparableTypes memoizes the per-dynamic-type comparability check so
// the reflect call happens once per AccelModel implementation.
var comparableTypes sync.Map // reflect.Type → bool

func memoizable(cfg Config) bool {
	if cfg.AccelModel == nil {
		return true // Analyze will reject it; nothing reaches the map
	}
	t := reflect.TypeOf(cfg.AccelModel)
	if v, ok := comparableTypes.Load(t); ok {
		return v.(bool)
	}
	ok := t.Comparable()
	comparableTypes.Store(t, ok)
	return ok
}
