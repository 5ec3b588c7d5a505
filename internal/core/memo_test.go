package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/physics"
	"repro/internal/units"
)

func memoTestConfig(name string, payload float64) Config {
	return Config{
		Name: name,
		Frame: physics.Airframe{
			Name: "memo-frame", BaseMass: units.Grams(1000),
			MotorCount: 4, MotorThrust: units.GramsForce(650),
		},
		AccelModel:  physics.PitchLimited{UsableThrustFraction: 0.95},
		Payload:     units.Grams(payload),
		SensorRate:  units.Hertz(60),
		SensorRange: units.Meters(4.5),
		ComputeRate: units.Hertz(178),
		ControlRate: units.Hertz(1000),
	}
}

func TestCacheHitReturnsIdenticalAnalysis(t *testing.T) {
	c := NewCache()
	cfg := memoTestConfig("memo", 300)
	want, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", c.Len())
	}
	second, err := c.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, first) || !reflect.DeepEqual(first, second) {
		t.Fatal("cached analysis diverges from direct Analyze")
	}
	if c.Len() != 1 {
		t.Fatalf("hit grew the cache to %d", c.Len())
	}
}

func TestCacheDistinctConfigs(t *testing.T) {
	c := NewCache()
	for i := 0; i < 10; i++ {
		if _, err := c.Analyze(memoTestConfig("memo", float64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 10 {
		t.Fatalf("cache has %d entries, want 10", c.Len())
	}
}

func TestNilCacheFallsThrough(t *testing.T) {
	var c *Cache
	an, err := c.Analyze(memoTestConfig("nil-cache", 300))
	if err != nil {
		t.Fatal(err)
	}
	if an.SafeVelocity <= 0 {
		t.Fatal("nil cache produced empty analysis")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has entries")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache()
	bad := memoTestConfig("bad", 300)
	bad.SensorRange = 0
	if _, err := c.Analyze(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
}

// sliceAccel is deliberately non-comparable (slice field): the cache
// must fall through to a direct Analyze instead of panicking on the
// map insert.
type sliceAccel struct{ pad []float64 }

func (sliceAccel) MaxAccel(physics.Airframe, units.Mass) units.Acceleration {
	return units.MetersPerSecond2(10)
}

func TestCacheNonComparableModelFallsThrough(t *testing.T) {
	c := NewCache()
	cfg := memoTestConfig("non-comparable", 300)
	cfg.AccelModel = sliceAccel{pad: []float64{1}}
	an, err := c.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if an.SafeVelocity <= 0 {
		t.Fatal("fallback analysis empty")
	}
	if c.Len() != 0 {
		t.Fatal("non-comparable config was cached")
	}
}

func TestCacheLimitEvictsIncrementally(t *testing.T) {
	c := NewCacheLimit(4)
	for i := 0; i < 10; i++ {
		if _, err := c.Analyze(memoTestConfig("memo", float64(100+i))); err != nil {
			t.Fatal(err)
		}
		if c.Len() > 4 {
			t.Fatalf("cache exceeded its limit: %d", c.Len())
		}
	}
	// Eviction is per-entry, not generation clearing: a full cache stays
	// full instead of dropping its whole working set.
	if c.Len() != 4 {
		t.Fatalf("cache has %d entries after overflow, want 4 (wholesale clear?)", c.Len())
	}
	if st := c.Stats(); st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6 (10 inserts into 4 slots)", st.Evictions)
	}
}

func TestCacheMatchesDirectAnalyze(t *testing.T) {
	// The sharded cache must be semantically invisible: for any config,
	// Analyze-through-cache equals a direct Analyze — including after
	// eviction churn forces recomputation.
	c := NewCacheLimit(8)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 40; i++ {
			cfg := memoTestConfig("equality", float64(100+i))
			want, err := Analyze(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Analyze(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("pass %d config %d: cached analysis diverges from direct Analyze", pass, i)
			}
		}
	}
}

func TestCacheStatsCounters(t *testing.T) {
	c := NewCacheLimit(64)
	for i := 0; i < 3; i++ {
		cfg := memoTestConfig("stats", float64(100+i))
		for j := 0; j < 2; j++ {
			if _, err := c.Analyze(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 3 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 3 hits / 3 misses / 0 evictions", st)
	}
	// Every miss here ran its own analysis, so fills track misses; a
	// hit never fills.
	if st.Fills != 3 {
		t.Fatalf("fills = %d, want 3 (one per uncoalesced miss)", st.Fills)
	}
	if st.Entries != 3 || st.Entries != c.Len() {
		t.Fatalf("entries = %d (Len %d), want 3", st.Entries, c.Len())
	}
	if st.Capacity != 64 {
		t.Fatalf("capacity = %d, want 64 (the construction limit)", st.Capacity)
	}
	if st.Shards < 1 {
		t.Fatalf("shards = %d", st.Shards)
	}
	if r := st.HitRate(); r != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", r)
	}
	var nilStats CacheStats
	if nilStats.HitRate() != 0 {
		t.Fatal("zero stats hit rate not 0")
	}
}

func TestCacheHotEntriesSurviveColdScan(t *testing.T) {
	// Segmented LRU's whole point: a one-pass cold scan (a huge explore
	// sweep) must not displace the proven working set. Hot entries are
	// promoted by their second hit; the scan then churns probation only.
	c := NewCacheLimit(8)
	hot := []Config{memoTestConfig("hot", 300), memoTestConfig("hot", 301)}
	for _, cfg := range hot {
		for j := 0; j < 2; j++ { // second access promotes to protected
			if _, err := c.Analyze(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Analyze(memoTestConfig("cold", float64(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, cfg := range hot {
		if !c.contains(cfg) {
			t.Errorf("hot entry %d evicted by the cold scan", i)
		}
	}
	if c.Len() > 8 {
		t.Fatalf("cache exceeded its limit: %d", c.Len())
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("cold scan caused no evictions")
	}
}

func TestCacheOffPassesThrough(t *testing.T) {
	c := CacheOff()
	cfg := memoTestConfig("off", 300)
	an, err := c.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if an.SafeVelocity <= 0 {
		t.Fatal("pass-through analysis empty")
	}
	if c.Len() != 0 || c.contains(cfg) {
		t.Fatal("CacheOff retained an entry")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("CacheOff stats = %+v, want zero", st)
	}
}

// TestCacheConcurrentEvictionChurn hammers a small cache from many
// goroutines (run under -race): a shared hot set is touched every
// iteration while unique cold configs force continuous eviction. The
// size bound, counter monotonicity and counter bookkeeping must all
// hold throughout, and a post-churn re-warm of the hot set must survive
// a fresh cold scan.
func TestCacheConcurrentEvictionChurn(t *testing.T) {
	const (
		limit      = 32
		goroutines = 8
		iters      = 200
	)
	c := NewCacheLimit(limit)
	hot := []Config{
		memoTestConfig("hot", 300), memoTestConfig("hot", 301),
		memoTestConfig("hot", 302), memoTestConfig("hot", 303),
	}

	// Sampler: every counter must be monotone while the hammer runs.
	stop := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		var prev CacheStats
		for {
			st := c.Stats()
			if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Evictions < prev.Evictions {
				t.Errorf("counters went backwards: %+v then %+v", prev, st)
				return
			}
			if st.Entries > limit {
				t.Errorf("entries = %d exceeds limit %d", st.Entries, limit)
				return
			}
			prev = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var lookups atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, cfg := range hot {
					if _, err := c.Analyze(cfg); err != nil {
						t.Error(err)
						return
					}
					lookups.Add(1)
				}
				cold := memoTestConfig("cold", float64(10000+w*iters+i))
				if _, err := c.Analyze(cold); err != nil {
					t.Error(err)
					return
				}
				lookups.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-samplerDone

	st := c.Stats()
	if c.Len() > limit || st.Entries > limit {
		t.Fatalf("cache exceeded its limit: Len %d, Entries %d", c.Len(), st.Entries)
	}
	// Every lookup is exactly one hit or one miss.
	if total := st.Hits + st.Misses; total != lookups.Load() {
		t.Fatalf("hits+misses = %d, want %d lookups", total, lookups.Load())
	}
	if st.Evictions == 0 {
		t.Fatal("churn caused no evictions")
	}
	if st.Evictions > st.Misses {
		t.Fatalf("evictions (%d) exceed misses (%d)", st.Evictions, st.Misses)
	}

	// Deterministic epilogue: re-warm the hot set (promoting each entry
	// to its shard's protected segment), then stream fresh cold configs.
	// The hot entries must survive — eviction prefers probation.
	for _, cfg := range hot {
		for j := 0; j < 2; j++ {
			if _, err := c.Analyze(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Analyze(memoTestConfig("cold2", float64(50000+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, cfg := range hot {
		if !c.contains(cfg) {
			t.Errorf("hot entry %d evicted by post-churn cold scan", i)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cfg := memoTestConfig("memo", float64(100+i%20))
				an, err := c.Analyze(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if an.Config.Payload != cfg.Payload {
					t.Error("wrong cached entry returned")
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 20 {
		t.Fatalf("cache has %d entries, want 20", c.Len())
	}
}

// TestCacheSingleflightExactlyOnce is the thundering-herd regression: a
// burst of concurrent misses of the same configurations must analyze
// each distinct config exactly once — the followers coalesce onto the
// leader's in-flight analysis — and the coalesced waits must show up in
// Stats. A counting analyzeFn stands in for the model; a start barrier
// maximizes the collision window.
func TestCacheSingleflightExactlyOnce(t *testing.T) {
	const goroutines = 16
	const distinct = 4

	counts := make([]atomic.Int64, distinct)
	release := make(chan struct{})
	orig := analyzeFn
	analyzeFn = func(cfg Config) (Analysis, error) {
		// Payload encodes the config index (see below).
		counts[int(cfg.Payload.Grams())-100].Add(1)
		<-release // hold every leader in flight until the herd has arrived
		return orig(cfg)
	}
	defer func() { analyzeFn = orig }()

	c := NewCache()
	var wg sync.WaitGroup
	results := make([]Analysis, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := memoTestConfig("herd", float64(100+g%distinct))
			an, err := c.Analyze(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = an
		}(g)
	}
	// Release the stalled leaders only once every goroutine is inside
	// Analyze — each has bumped the miss counter, as leader or as
	// coalesced follower — so the herd genuinely collides.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Misses < goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("herd never assembled: %d/%d misses", c.Stats().Misses, goroutines)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("config %d analyzed %d times, want exactly 1", i, n)
		}
	}
	st := c.Stats()
	if st.Coalesced == 0 {
		t.Error("no coalesced waits recorded despite concurrent misses")
	}
	if st.Coalesced > st.Misses {
		t.Errorf("coalesced (%d) exceeds misses (%d)", st.Coalesced, st.Misses)
	}
	// Every caller of one config got the leader's (identical) result.
	for g := range results {
		want, err := Analyze(memoTestConfig("herd", float64(100+g%distinct)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[g], want) {
			t.Errorf("goroutine %d got a diverging coalesced result", g)
		}
	}
}

// TestCacheSingleflightSharesErrors: followers of a failing leader get
// the same error, and nothing is cached.
func TestCacheSingleflightSharesErrors(t *testing.T) {
	c := NewCache()
	bad := memoTestConfig("bad", 300)
	bad.SensorRange = 0 // fails validation deterministically
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Analyze(bad); err == nil {
				t.Error("invalid config analyzed without error")
			}
		}()
	}
	wg.Wait()
	if c.Len() != 0 {
		t.Fatalf("error was cached: %d entries", c.Len())
	}
}

// TestCacheSingleflightLeaderPanic: a panicking analysis (bad model
// data) must not strand the in-flight registration — concurrent
// followers get an error instead of hanging, and the next caller
// becomes a fresh leader and succeeds.
func TestCacheSingleflightLeaderPanic(t *testing.T) {
	c := NewCache()
	cfg := memoTestConfig("panicky", 300)

	release := make(chan struct{})
	orig := analyzeFn
	analyzeFn = func(cfg Config) (Analysis, error) {
		<-release
		panic("model blew up")
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	panics := make([]any, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() { panics[g] = recover() }()
			_, errs[g] = c.Analyze(cfg)
		}(g)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Misses < 4; {
		if time.Now().After(deadline) {
			t.Fatal("goroutines never assembled")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	analyzeFn = orig

	leaders, followers := 0, 0
	for g := range errs {
		switch {
		case panics[g] != nil:
			leaders++ // the leader's panic propagates to its caller
		case errs[g] != nil:
			followers++ // followers get the abandoned-flight error
		default:
			t.Errorf("goroutine %d returned success from a panicked flight", g)
		}
	}
	if leaders != 1 || followers != 3 {
		t.Errorf("leaders=%d followers=%d, want 1/3", leaders, followers)
	}

	// The registry entry is gone: the same config analyzes cleanly now.
	an, err := c.Analyze(cfg)
	if err != nil {
		t.Fatalf("config permanently wedged after leader panic: %v", err)
	}
	if an.Config.Name != "panicky" {
		t.Fatal("wrong analysis returned")
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", c.Len())
	}
}
