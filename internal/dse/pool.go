package dse

import (
	"context"
	"iter"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the dse package's internal work-stealing scheduler — the
// parallel engine behind Explorer.Candidates/ExploreContext when
// PoolSize (or an explicit Explorer.Workers) picks more than one
// worker, and behind the Sweep/GridSweep evaluators (forEachParallel in
// sweep.go). One-worker explorations run the same chunk loop
// (plan.processChunk) inline on the caller's goroutine instead.
//
// The candidate index space [0,n) is split into one coarse contiguous
// range per worker, seeded into per-worker deques. A worker claims small
// grains from the low end of its own deque; when the deque runs dry it
// steals half of the richest victim's remaining indices from the HIGH
// end (steal-half splitting). Skewed spaces — where some cells analyze
// orders of magnitude slower than others — therefore rebalance
// dynamically: the moment any worker runs out, it takes half of the
// biggest backlog, recursively, so the tail of a sweep is bounded by a
// single grain's work instead of a whole fixed-size chunk.
//
// Determinism is preserved by construction, not by scheduling: workers
// only ever claim disjoint index ranges, results carry their range, and
// the streaming layer (orderedSink) re-merges them in ascending index
// order. The output is element-for-element identical to a serial scan
// for every worker count, every grain size and every steal interleaving.

// span is a half-open index range [start, end).
type span struct{ start, end int }

func (s span) size() int { return s.end - s.start }

// stealDeque is one worker's queue of unclaimed spans, kept in ascending
// index order. The owner claims grains from the lowest span (so the
// stream's front is produced as early as possible); thieves split off
// the high half. Claimed work never re-enters a deque, so anything a
// worker is computing is invisible to thieves.
type stealDeque struct {
	mu    sync.Mutex
	spans []span
	// remaining mirrors the spans' total index count so victim selection
	// can scan sizes without taking every lock. It is only written under
	// mu; reads are approximate by design.
	remaining atomic.Int64
}

// claim pops a grain of at most g indices from the front (lowest
// indices) of the deque.
//
//reprolint:hotpath
func (d *stealDeque) claim(g int) (span, bool) {
	d.mu.Lock()
	if len(d.spans) == 0 {
		d.mu.Unlock()
		return span{}, false
	}
	s := d.spans[0]
	out := span{start: s.start, end: min(s.start+g, s.end)}
	if out.end >= s.end {
		d.spans = d.spans[1:]
	} else {
		d.spans[0].start = out.end
	}
	d.remaining.Add(int64(-out.size()))
	d.mu.Unlock()
	return out, true
}

// stealHalf removes the high half (ceil) of the deque's remaining
// indices — whole spans off the back, splitting at most one — and
// returns them in ascending order. nil when the deque is empty.
//
//reprolint:hotpath
func (d *stealDeque) stealHalf() []span {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, s := range d.spans {
		total += s.size()
	}
	if total == 0 {
		return nil
	}
	take := (total + 1) / 2 // at least one index whenever any remain
	taken := take
	// Whole spans come off the back and at most one is split, so the
	// result can never outgrow the deque itself.
	stolen := make([]span, 0, len(d.spans))
	for take > 0 {
		last := len(d.spans) - 1
		s := d.spans[last]
		if s.size() <= take {
			stolen = append(stolen, s)
			d.spans = d.spans[:last]
			take -= s.size()
		} else {
			mid := s.end - take
			d.spans[last].end = mid
			stolen = append(stolen, span{start: mid, end: s.end})
			take = 0
		}
	}
	// Collected back-to-front; restore ascending order so the thief's
	// own claims stay lowest-first.
	for i, j := 0, len(stolen)-1; i < j; i, j = i+1, j-1 {
		stolen[i], stolen[j] = stolen[j], stolen[i]
	}
	d.remaining.Add(int64(-taken))
	return stolen
}

// install appends stolen spans (ascending, all above the deque's current
// contents — thieves only steal when their own deque is empty, and
// spans only enter a deque through its owner).
//
//reprolint:hotpath
func (d *stealDeque) install(spans []span) {
	n := 0
	for _, s := range spans {
		n += s.size()
	}
	d.mu.Lock()
	//reprolint:allow hotpathalloc the deque keeps its backing array across installs, so growth amortizes over the pool run
	d.spans = append(d.spans, spans...)
	d.remaining.Add(int64(n))
	d.mu.Unlock()
}

// stealGrain picks the default claim quantum: fine enough that a skewed
// cell's neighbors can be stolen away (a worker's tail is at most one
// grain), coarse enough that deque and merge traffic stay negligible.
func stealGrain(n, workers int) int {
	g := n / (workers * 16)
	if g < 8 {
		g = 8
	}
	if g > 512 {
		g = 512
	}
	return g
}

// stealRun fans process over [0,n) across a pool of workers with
// work stealing and blocks until every worker has exited. Each worker
// repeatedly claims a grain-sized span (own deque lowest-first, else
// steal-half from the richest victim) and calls process on it; process
// returning false aborts the whole pool, as does ctx expiring. Claimed
// spans are always handed to process exactly once; on abort, unclaimed
// spans are simply dropped.
//
//reprolint:hotpath
func stealRun(ctx context.Context, n, workers, grain int, process func(w int, g span) bool) {
	if grain < 1 {
		grain = 1
	}
	deques := make([]stealDeque, workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo < hi {
			deques[w].spans = []span{{start: lo, end: hi}}
			deques[w].remaining.Store(int64(hi - lo))
		}
	}
	var stop atomic.Bool
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//reprolint:allow hotpathalloc one goroutine launch per worker per pool run, amortized over every grain it processes
		go func(w int) {
			defer wg.Done()
			own := &deques[w]
			for {
				if stop.Load() {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				g, ok := own.claim(grain)
				if !ok {
					if stealInto(deques, w) {
						continue
					}
					if totalRemaining(deques) == 0 {
						return // every index is claimed or finished
					}
					// A victim emptied between the size scan and the
					// steal; let its owner make progress and retry.
					runtime.Gosched()
					continue
				}
				if !process(w, g) {
					stop.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// stealInto moves half of the richest victim's backlog into worker w's
// (empty) deque. False when no victim had work at scan time.
func stealInto(deques []stealDeque, w int) bool {
	victim, best := -1, int64(0)
	for i := range deques {
		if i == w {
			continue
		}
		if r := deques[i].remaining.Load(); r > best {
			victim, best = i, r
		}
	}
	if victim < 0 {
		return false
	}
	stolen := deques[victim].stealHalf()
	if len(stolen) == 0 {
		return false
	}
	deques[w].install(stolen)
	return true
}

// totalRemaining sums the unclaimed indices across every deque.
func totalRemaining(deques []stealDeque) int64 {
	var n int64
	for i := range deques {
		n += deques[i].remaining.Load()
	}
	return n
}

// chunkResult is one completed grain: the surviving candidates of
// [start, end) in index order, plus the first error hit inside it.
type chunkResult struct {
	cands []Candidate
	end   int
	err   error
}

// orderedSink merges out-of-order grain results back into ascending
// index order for the streaming consumer. Memory stays bounded: at most
// maxAhead grains are buffered beyond the one the consumer needs next;
// workers publishing further ahead block until the stream advances. The
// grain the consumer is waiting for is always admitted immediately, so
// the pipeline can never wedge on a full buffer.
type orderedSink struct {
	mu       sync.Mutex
	cond     sync.Cond
	next     int                 // start index of the grain the consumer needs
	results  map[int]chunkResult // keyed by grain start
	maxAhead int
	closed   bool // consumer gone: publishers must drop and exit
	done     bool // all producers exited
}

func newOrderedSink(maxAhead int) *orderedSink {
	o := &orderedSink{results: make(map[int]chunkResult), maxAhead: maxAhead}
	o.cond.L = &o.mu
	return o
}

// publish hands a completed grain to the consumer side, blocking while
// the reorder buffer is full (unless this grain is the one the stream
// needs next). False when the consumer has gone away.
func (o *orderedSink) publish(g span, cands []Candidate, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	for !o.closed && len(o.results) >= o.maxAhead && g.start != o.next {
		// The PR 4 wedged-publisher shape, on purpose: Wait releases mu
		// while parked, and close() broadcasts so no publisher outlives
		// the consumer.
		o.cond.Wait() //reprolint:allow lockorder — cond.Wait parks with mu released; take/close always Broadcast
	}
	if o.closed {
		return false
	}
	o.results[g.start] = chunkResult{cands: cands, end: g.end, err: err}
	o.cond.Broadcast()
	return true
}

// take blocks until the next grain in index order is available and
// returns it. ok is false when every producer has exited without
// publishing it — an aborted (cancelled) traversal.
func (o *orderedSink) take() (chunkResult, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for {
		if r, ok := o.results[o.next]; ok {
			delete(o.results, o.next)
			o.next = r.end
			o.cond.Broadcast()
			return r, true
		}
		if o.done {
			return chunkResult{}, false
		}
		o.cond.Wait() //reprolint:allow lockorder — cond.Wait parks with mu released; publish/finish always Broadcast
	}
}

// close marks the consumer gone and releases blocked publishers.
func (o *orderedSink) close() {
	o.mu.Lock()
	o.closed = true
	o.cond.Broadcast()
	o.mu.Unlock()
}

// finish marks the producer side complete.
func (o *orderedSink) finish() {
	o.mu.Lock()
	o.done = true
	o.cond.Broadcast()
	o.mu.Unlock()
}

// streamStealing runs the plan over [0,n) on the work-stealing pool and
// yields each grain's surviving candidates in ascending index order, so
// the merged stream is byte-identical to a serial scan while the
// workers rebalance freely.
//
// Cancellation is request-scoped: the pool derives its own context from
// ctx, cancelled when the consumer breaks out of the iteration or when
// ctx itself is cancelled (a client disconnect, a deadline). Workers
// observe it between candidates, so in-flight grains abort instead of
// draining.
//
// A grain that fails yields its pre-error survivors along with the
// error; iteration stops after the first error, which — because grains
// are yielded in order — is the same error a serial scan would hit
// first. A parent-context cancellation surfaces as ctx.Err().
func streamStealing(ctx context.Context, p *plan, n, grain, workers int) iter.Seq2[[]Candidate, error] {
	return func(yield func([]Candidate, error) bool) {
		// cancel fires on every exit path: early consumer break, error,
		// or normal completion (a no-op by then).
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		sink := newOrderedSink(max(2*workers, 4))
		defer sink.close()
		// A dead context must also release publishers blocked on a full
		// reorder buffer — without this, an external cancellation could
		// strand a worker waiting for a stream that will never advance.
		stop := context.AfterFunc(ctx, sink.close)
		defer stop()
		go func() {
			stealRun(ctx, n, workers, grain, func(_ int, g span) bool {
				// Each grain owns its survivors and Ceilings block:
				// the consumer takes them over when it is merged.
				arena := newArena(g.size())
				cands, err := p.processChunk(ctx, g.start, g.end, make([]Candidate, 0, g.size()), &arena)
				return sink.publish(g, cands, err)
			})
			sink.finish()
		}()
		for {
			r, ok := sink.take()
			if !ok {
				// The producers exited before covering the space: the
				// parent context died. Report the cancellation rather
				// than masquerading as a complete traversal.
				if err := ctx.Err(); err != nil {
					yield(nil, err)
				}
				return
			}
			if !yield(r.cands, r.err) || r.err != nil {
				return
			}
			if r.end >= n {
				return // the space is fully merged
			}
		}
	}
}
