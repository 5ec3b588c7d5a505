package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheAnalyzeContextCancelledFollower is the stalled-leader /
// cancelled-follower regression: a follower coalesced onto a leader's
// in-flight analysis must abandon the wait with its own ctx.Err() when
// its request dies first — while the leader, unaffected, completes and
// fills the cache for everyone after.
func TestCacheAnalyzeContextCancelledFollower(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	var analyses atomic.Int64
	orig := analyzeFn
	analyzeFn = func(cfg Config) (Analysis, error) {
		analyses.Add(1)
		entered <- struct{}{}
		<-release // stall the leader mid-flight
		return orig(cfg)
	}
	defer func() { analyzeFn = orig }()

	c := NewCache()
	cfg := memoTestConfig("ctx-follower", 300)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Analyze(cfg) // uncancellable leader
		leaderDone <- err
	}()
	<-entered // the leader is in flight and registered

	// A follower with a cancellable context joins the flight, then its
	// request is cancelled while the leader is still stalled.
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, err := c.AnalyzeContext(ctx, cfg)
		followerDone <- err
	}()
	// Wait until the follower has actually coalesced before cancelling,
	// so the test exercises the in-wait select, not the lock-step path.
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Coalesced == 0; {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced onto the leader's flight")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled follower still waiting on the stalled leader")
	}

	// The leader was unaffected: release it, it completes and fills.
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	if !c.contains(cfg) {
		t.Fatal("leader did not fill the cache after follower abandonment")
	}
	// The next caller hits; no second analysis ever ran.
	if _, err := c.AnalyzeContext(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if n := analyses.Load(); n != 1 {
		t.Fatalf("analysis ran %d times, want exactly 1", n)
	}
}

// TestCacheAnalyzeContextUncancelledMatchesAnalyze: with a background
// context the context-aware path is behaviorally identical to Analyze.
func TestCacheAnalyzeContextUncancelledMatchesAnalyze(t *testing.T) {
	c := NewCache()
	cfg := memoTestConfig("ctx-plain", 310)
	got, err := c.AnalyzeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("AnalyzeContext diverges from direct Analyze")
	}
	if c.Stats().Hits != 0 || c.Stats().Misses != 1 {
		t.Fatalf("unexpected stats after first lookup: %+v", c.Stats())
	}
}

// TestCacheLookup: hits return the entry and count as hits; absences
// return false without counting a miss (the follow-up fill records it).
func TestCacheLookup(t *testing.T) {
	c := NewCache()
	cfg := memoTestConfig("lookup", 350)
	if _, ok := c.Lookup(cfg); ok {
		t.Fatal("Lookup hit an empty cache")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Lookup absence perturbed counters: %+v", st)
	}
	want, err := c.Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c.Lookup(cfg)
	if !ok {
		t.Fatal("Lookup missed a cached entry")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Lookup result diverges from the cached analysis")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("unexpected counters after hit: %+v", st)
	}
	// Nil and pass-through caches never hit.
	if _, ok := (*Cache)(nil).Lookup(cfg); ok {
		t.Fatal("nil cache Lookup hit")
	}
	if _, ok := CacheOff().Lookup(cfg); ok {
		t.Fatal("CacheOff Lookup hit")
	}
}

// TestCacheMemoizes pins the Memoizes predicate across the cache kinds.
func TestCacheMemoizes(t *testing.T) {
	if (*Cache)(nil).Memoizes() {
		t.Fatal("nil cache claims to memoize")
	}
	if CacheOff().Memoizes() {
		t.Fatal("CacheOff claims to memoize")
	}
	if (&Cache{}).Memoizes() {
		t.Fatal("zero cache claims to memoize")
	}
	if !NewCache().Memoizes() {
		t.Fatal("NewCache does not claim to memoize")
	}
}
