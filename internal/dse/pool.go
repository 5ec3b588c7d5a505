package dse

import (
	"context"
	"iter"
	"sync"
	"sync/atomic"
)

// span is a half-open index range [start, end).
type span struct{ start, end int }

func (s span) size() int { return s.end - s.start }

// chunkGrain picks the default claim quantum: fine enough that a skewed
// cell's neighbors spread across workers (a worker's tail is at most
// one grain), coarse enough that counter and handoff traffic stay
// negligible.
func chunkGrain(n, workers int) int {
	return min(max(n/(workers*16), 8), 512)
}

// runChunks is the package's chunk runner, behind pool-sized
// explorations and every Sweep/GridSweep: workers claim chunks of [0,n) from
// one shared atomic counter, chunk k covering [k·grain, min((k+1)·grain,
// n)), so a skewed space balances itself. A worker stops when the
// counter passes n, ctx is done, or process returns false; chunks
// already claimed still run to completion. Claims are ascending, so
// process runs exactly once for every chunk below the returned count
// and never above it — callers write per-chunk slots and read them back
// in chunk order, getting a serial scan's output and its first error.
// When permits is non-nil a worker takes a token from it before each
// claim, which lets a consumer bound how far the pool runs ahead. The
// caller's goroutine is one of the workers, so a one-worker run claims
// its chunks inline without starting a goroutine.
func runChunks(ctx context.Context, n, workers, grain int, permits <-chan struct{}, process func(k int, s span) bool) (claimed int) {
	chunks := (n + grain - 1) / grain
	var next atomic.Int64
	var stop atomic.Bool
	done := ctx.Done()
	work := func() {
		for !stop.Load() {
			if permits != nil {
				select {
				case <-permits:
				case <-done:
					return
				}
			} else {
				select {
				case <-done:
					return
				default:
				}
			}
			k := int(next.Add(1) - 1)
			if k >= chunks {
				return
			}
			if !process(k, span{start: k * grain, end: min((k+1)*grain, n)}) {
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return min(int(next.Load()), chunks)
}

// chunkResult is one completed chunk: the surviving candidates of its
// span in index order, plus the first error hit inside it.
type chunkResult struct {
	cands []Candidate
	err   error
}

// runChunk analyzes one chunk into its own survivors slice and Ceilings
// arena, so the caller can take both over without copying.
func (p *plan) runChunk(ctx context.Context, s span) chunkResult {
	arena := newArena(s.size())
	cands, err := p.processChunk(ctx, s.start, s.end, make([]Candidate, 0, s.size()), &arena)
	return chunkResult{cands: cands, err: err}
}

// streamChunks runs the plan over [0,n) on the pool and yields each
// chunk's surviving candidates in ascending index order, so the merged
// stream is byte-identical to a serial scan.
//
// A worker takes a permit before it claims a chunk and the consumer
// returns one when it takes a chunk, so claimed-but-unconsumed chunks
// always lie in [c, c+ahead), c being the chunk the consumer awaits.
// Chunk k is handed over in ring slot k mod ahead: within that window
// the slots are distinct, so a send never blocks, memory stays bounded,
// and the awaited chunk is always claimed or claimable.
//
// The pool's context is cancelled when the consumer stops or ctx ends
// (a client disconnect, a deadline); workers observe it between
// candidates, so in-flight chunks abort instead of draining, and the
// iteration returns only once every worker has exited. A failing
// chunk yields its pre-error survivors with the error and ends the
// stream; a parent-context cancellation surfaces as ctx.Err().
func streamChunks(ctx context.Context, p *plan, n, grain, workers int) iter.Seq2[[]Candidate, error] {
	return func(yield func([]Candidate, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		ahead := max(2*workers, 4)
		ring := make([]chan chunkResult, ahead)
		for i := range ring {
			ring[i] = make(chan chunkResult, 1)
		}
		permits := make(chan struct{}, ahead)
		for range ahead {
			permits <- struct{}{}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			runChunks(ctx, n, workers, grain, permits, func(k int, s span) bool {
				r := p.runChunk(ctx, s)
				ring[k%ahead] <- r
				return r.err == nil
			})
		}()
		// On every exit path — early consumer break, error, or normal
		// completion — stop the pool and wait for it, so no work
		// outlives the stream.
		defer func() {
			cancel()
			wg.Wait()
		}()
		done := ctx.Done()
		for k := 0; k*grain < n; k++ {
			// A ready chunk wins over a cancellation, so a real chunk
			// error is never masked by the context's.
			var r chunkResult
			select {
			case r = <-ring[k%ahead]:
			default:
				select {
				case r = <-ring[k%ahead]:
				case <-done:
					yield(nil, ctx.Err())
					return
				}
			}
			permits <- struct{}{}
			if !yield(r.cands, r.err) || r.err != nil {
				return
			}
		}
	}
}

// exploreChunks collects the plan's survivors over [0,n) on the pool:
// each chunk writes its own slot, and the slots are joined once, in
// chunk order, into an exact-size result. A failing chunk stops further
// claims but not the chunks below it, so the first error in chunk order
// is the one a serial scan would hit first.
func exploreChunks(ctx context.Context, p *plan, n, grain, workers int) ([]Candidate, error) {
	slots := make([]chunkResult, (n+grain-1)/grain)
	claimed := runChunks(ctx, n, workers, grain, nil, func(k int, s span) bool {
		slots[k] = p.runChunk(ctx, s)
		return slots[k].err == nil
	})
	total := 0
	for _, r := range slots[:claimed] {
		if r.err != nil {
			return nil, r.err
		}
		total += len(r.cands)
	}
	if claimed < len(slots) {
		// The workers stopped without an error below: ctx ended.
		return nil, ctx.Err()
	}
	out := make([]Candidate, 0, total)
	for _, r := range slots {
		out = append(out, r.cands...)
	}
	return out, nil
}
