package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/skyline"
	"repro/internal/store"
)

// refs holds the expected body digest of every request a run draws,
// computed in-process by a server with no cache, no store and one
// worker per request: the slowest, simplest path the serving contracts
// say every other configuration must match byte for byte.
type refs struct {
	srv *skyline.Server
	mu  sync.Mutex
	m   map[string][32]byte
}

func newRefs(cat *catalog.Catalog) *refs {
	return &refs{
		srv: skyline.NewServerWith(cat, skyline.Options{Cache: core.CacheOff(), MaxWorkersPerRequest: 1}),
		m:   make(map[string][32]byte),
	}
}

// serve answers url in-process and returns the recorded response.
func serve(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// ensure computes the reference of every request in reqs that has none
// yet, on two goroutines (each request itself runs serially). A request
// the reference server does not answer with 200 is an error: workloads
// draw only requests that succeed.
func (r *refs) ensure(reqs []request) error {
	var todo []string
	seen := make(map[string]bool)
	r.mu.Lock()
	for _, q := range reqs {
		if _, ok := r.m[q.url]; !ok && !seen[q.url] {
			seen[q.url] = true
			todo = append(todo, q.url)
		}
	}
	r.mu.Unlock()
	var (
		wg   sync.WaitGroup
		next = make(chan string)
		mu   sync.Mutex
		bad  error
	)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range next {
				rec := serve(r.srv, u)
				if rec.Code != http.StatusOK {
					mu.Lock()
					bad = fmt.Errorf("reference server answered %d to %s: %s", rec.Code, u, rec.Body.String())
					mu.Unlock()
					continue
				}
				d := sha256.Sum256(rec.Body.Bytes())
				r.mu.Lock()
				r.m[u] = d
				r.mu.Unlock()
			}
		}()
	}
	for _, u := range todo {
		next <- u
	}
	close(next)
	wg.Wait()
	return bad
}

// match reports whether digest is the reference body of url; known is
// false when url has no reference.
func (r *refs) match(url string, digest [32]byte) (known, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	want, known := r.m[url]
	return known, known && want == digest
}

// verdict is the outcome of checking a run's responses.
type verdict struct {
	attempted, failed int
	// mismatched counts 200 responses whose bytes differ from the
	// reference; any makes the run incorrect.
	mismatched int
	checked    int
}

// checkSamples computes the references still missing and compares
// every response against its reference. A non-200 status, a transport
// error or a byte mismatch fails the request.
func (r *refs) checkSamples(samples []sample) (verdict, error) {
	reqs := make([]request, len(samples))
	for i := range samples {
		reqs[i] = samples[i].req
	}
	if err := r.ensure(reqs); err != nil {
		return verdict{}, err
	}
	v := verdict{attempted: len(samples)}
	for i := range samples {
		s := &samples[i]
		if !s.ok() {
			v.failed++
			continue
		}
		known, ok := r.match(s.req.url, s.digest)
		if !known {
			return verdict{}, fmt.Errorf("no reference for %s", s.req.url)
		}
		v.checked++
		if !ok {
			v.failed++
			v.mismatched++
			// The bytes were wrong, so the request did not succeed.
			s.status = -1
		}
	}
	return v, nil
}

// checkContracts re-verifies, on this run's catalog and requests, the
// serving contracts the byte check rests on: the same request gives the
// same bytes; a parallel, cached server answers exactly as the serial,
// uncached reference; and a response served from the persistent store
// (an exact hit, or one filtered from a stored superset) equals the
// recomputed one. sample must already have references.
func (r *refs) checkContracts(cat *catalog.Catalog, sample []request, storeDir string) error {
	for _, q := range sample {
		if d := sha256.Sum256(serve(r.srv, q.url).Body.Bytes()); !r.same(q.url, d) {
			return fmt.Errorf("same request, different bytes: %s", q.url)
		}
	}
	par := skyline.NewServerWith(cat, skyline.Options{Cache: core.NewCache()})
	for _, q := range sample {
		if d := sha256.Sum256(serve(par, q.url).Body.Bytes()); !r.same(q.url, d) {
			return fmt.Errorf("parallel answer differs from serial: %s", q.url)
		}
	}
	st, err := store.Open(storeDir, 0)
	if err != nil {
		return err
	}
	stored := skyline.NewServerWith(cat, skyline.Options{Cache: core.CacheOff(), Store: st})
	for pass := 0; pass < 2; pass++ {
		for _, q := range sample {
			rec := serve(stored, q.url)
			if !r.same(q.url, sha256.Sum256(rec.Body.Bytes())) {
				return fmt.Errorf("store pass %d differs from recomputed: %s", pass, q.url)
			}
			if pass == 1 && (q.path == "/explore" || q.path == "/grid.svg") && rec.Header().Get("X-Explore-Store") == "" {
				return fmt.Errorf("repeat was not served from the store: %s", q.url)
			}
		}
	}
	return nil
}

func (r *refs) same(url string, d [32]byte) bool {
	_, ok := r.match(url, d)
	return ok
}
