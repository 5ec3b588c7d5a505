// Package faultinject provides deterministic fault injection for
// robustness tests and the load generator: named sites in production
// code call Fire, and a test (or cmd/loadgen -fault) arms a Fault —
// added latency, a returned error, or a panic — against a site.
//
// The package is built for an always-compiled-in, never-armed steady
// state: with nothing armed, Fire is a single atomic load and a
// return. Sites therefore stay in production binaries (there is no
// build tag to forget), and the hot paths they sit on — the exploration
// scheduler's chunk loop, the store's I/O — pay one predictable branch.
//
// Faults are armed per site with Enable, which returns a disarm
// function; tests must disarm (usually via t.Cleanup) so the
// process-global registry cannot leak between tests. A Fault can be
// bounded to its first Times firings — Enable(site, Fault{Panic:
// true, Times: 1}) arms exactly one panic — and unlimited otherwise.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sites compiled into the repo. A site string is just a name — tests
// may arm their own ad-hoc sites — but the canonical seams live here
// so callers and tests agree on spelling.
const (
	// SiteCacheFill fires in the analysis cache's singleflight leader,
	// after it has registered the in-flight analysis and before the
	// fill computes: an armed error is what every coalesced follower
	// receives, and an armed panic exercises the abandoned-flight
	// recovery path. No production path reaches it: the site stays
	// with core.Cache only while perfbench still compiles against the
	// cache.
	SiteCacheFill = "core.cache.fill"
	// SiteDSEChunk fires at the head of every chunk of the exploration
	// engine's chunk loop — every claimed grain of an exploration and
	// every claimed span of a Sweep or GridSweep — on pool workers and
	// inline one-worker runs alike: the seam for slowing, failing or
	// killing an engine run mid-space.
	SiteDSEChunk = "dse.chunk"
	// SiteDSEPlan fires once per engine run, at the head of the
	// exploration planner and of GridSweepContext: an armed error fails
	// any request that would run the engine, which is how the warm
	// store tests prove a restarted server never recomputed. It fires
	// when a run attaches its view to a compiled space, not when the
	// space is compiled, so a run over a space compiled and cached
	// earlier still trips it.
	SiteDSEPlan = "dse.plan"
	// SiteStoreRead fires before each read attempt of a persistent
	// result-store artifact: an armed error exercises the retry loop
	// and, when it outlasts the budget, the degrade-to-recompute path.
	SiteStoreRead = "store.read"
	// SiteStoreWrite fires before each artifact write attempt (ahead of
	// the temp file), and SiteStoreRename before the atomic rename that
	// publishes it — the two halves of the crash-safe write protocol.
	SiteStoreWrite  = "store.write"
	SiteStoreRename = "store.rename"
)

// Fault describes one armed failure mode. Fields compose: a Fault may
// sleep and then error. Panic wins over Err.
type Fault struct {
	// Latency is slept before anything else — it models a slow
	// dependency rather than a broken one.
	Latency time.Duration
	// Err, when non-nil, is returned from Fire.
	Err error
	// Panic, when true, makes Fire panic with a *Panic value after the
	// latency. It takes precedence over Err.
	Panic bool
	// Times bounds how many firings consume this fault: after Times
	// firings the site reverts to pass-through (the fault stays
	// registered but spent). 0 means unlimited.
	Times int
}

// Panic is the value an armed panic throws, so recovery sites can
// distinguish injected panics from organic ones in assertions.
type Panic struct{ Site string }

func (p *Panic) String() string { return fmt.Sprintf("faultinject: armed panic at %s", p.Site) }

// ErrInjected is the default error for Fault{Err: nil} firings that
// still need an error value — Enable substitutes it so an armed
// "error fault" never silently passes.
var ErrInjected = errors.New("faultinject: injected error")

// armed is one registered fault with its remaining-fire budget.
type armed struct {
	f    Fault
	left atomic.Int64 // remaining firings; negative = unlimited
}

var (
	mu    sync.Mutex
	sites map[string]*armed
	// active is the fast-path gate: zero means no site is armed and
	// Fire returns immediately. It counts armed sites, not firings.
	active atomic.Int64
)

// Enable arms f at site, replacing any fault already armed there, and
// returns the disarm function. Arm in tests with
//
//	defer faultinject.Enable(site, fault)()
//
// or t.Cleanup(disarm). Disarm is idempotent and removes the site
// only if it still holds this registration.
func Enable(site string, f Fault) (disarm func()) {
	if f.Err == nil && !f.Panic && f.Latency == 0 {
		f.Err = ErrInjected
	}
	a := &armed{f: f}
	if f.Times > 0 {
		a.left.Store(int64(f.Times))
	} else {
		a.left.Store(-1)
	}
	mu.Lock()
	if sites == nil {
		sites = make(map[string]*armed)
	}
	if _, replaced := sites[site]; !replaced {
		active.Add(1)
	}
	sites[site] = a
	mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			mu.Lock()
			if sites[site] == a {
				delete(sites, site)
				active.Add(-1)
			}
			mu.Unlock()
		})
	}
}

// Reset disarms every site — a belt-and-braces cleanup for TestMain
// style harnesses.
func Reset() {
	mu.Lock()
	for site := range sites {
		delete(sites, site)
	}
	active.Store(0)
	mu.Unlock()
}

// Fire triggers site: with nothing armed (the production steady
// state) it is one atomic load; with a fault armed it sleeps the
// latency, then panics or returns the armed error. A Times-bounded
// fault that has spent its budget passes through.
func Fire(site string) error {
	if active.Load() == 0 {
		return nil
	}
	mu.Lock()
	a := sites[site]
	mu.Unlock()
	if a == nil {
		return nil
	}
	// Consume one firing atomically: for a Times-bounded fault the
	// budget going negative means it was already spent, and the single
	// atomic Add keeps two concurrent firings from both claiming the
	// last one. Unlimited faults start at -1 and only grow more
	// negative — an int64 cannot realistically wrap.
	if a.left.Add(-1) < 0 && a.f.Times > 0 {
		return nil
	}
	if a.f.Latency > 0 {
		time.Sleep(a.f.Latency)
	}
	if a.f.Panic {
		panic(&Panic{Site: site})
	}
	return a.f.Err
}
