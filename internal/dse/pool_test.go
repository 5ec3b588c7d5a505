package dse

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
)

// TestStealRunCoversSpaceExactlyOnce drives the raw chunk runner over
// many (n, workers, grain) shapes and asserts every index is processed
// exactly once — the invariant all determinism rests on — including
// shapes with heavy counter contention (grain 1, workers ≫ chunks).
func TestStealRunCoversSpaceExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 5, 16} {
			for _, grain := range []int{1, 8, 512} {
				counts := make([]atomic.Int32, n)
				claimed := runChunks(context.Background(), n, workers, grain, nil, func(k int, s span) bool {
					if s.start != k*grain {
						t.Errorf("n=%d workers=%d grain=%d: chunk %d starts at %d", n, workers, grain, k, s.start)
					}
					for i := s.start; i < s.end; i++ {
						counts[i].Add(1)
					}
					return true
				})
				if want := (n + grain - 1) / grain; claimed != want {
					t.Fatalf("n=%d workers=%d grain=%d: claimed %d chunks, want %d", n, workers, grain, claimed, want)
				}
				for i := range counts {
					if c := counts[i].Load(); c != 1 {
						t.Fatalf("n=%d workers=%d grain=%d: index %d processed %d times",
							n, workers, grain, i, c)
					}
				}
			}
		}
	}
}

// skewedExplorer builds an Explorer over a skewed synthetic space: the
// last UAV's cells cost ~hundreds of times the first's, so a static
// partition would leave most workers idle while one grinds the tail.
func skewedExplorer(workers, grain int) Explorer {
	cat := catalog.SyntheticSkewed(6, 8, 8, 150) // 384 candidates, heavy tail
	return Explorer{
		Catalog:   cat,
		Space:     synthSpace(cat),
		Workers:   workers,
		ChunkSize: grain,
	}
}

// TestStealSkewedMatchesSerial is the determinism hammer: on a heavily
// skewed space — where workers finish their chunks far out of order —
// the parallel stream must stay element-for-element identical to the
// serial scan for every worker count and grain size. Run under -race
// (CI does) it also hammers the chunk counter and the slot handoffs.
func TestStealSkewedMatchesSerial(t *testing.T) {
	serial, err := skewedExplorer(1, 0).Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 6*8*8 {
		t.Fatalf("serial explored %d candidates, want %d", len(serial), 6*8*8)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		for _, grain := range []int{0, 1, 7, 64} {
			e := skewedExplorer(workers, grain)
			par, err := e.Enumerate()
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			requireEqualCandidates(t, serial, par)
			// The streaming path hands chunks over through its ring of
			// slots; it must agree too, including under an early break.
			var got []Candidate
			for cand, err := range e.Candidates(context.Background()) {
				if err != nil {
					t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
				}
				got = append(got, cand)
				if len(got) == 100 {
					break
				}
			}
			requireEqualCandidates(t, serial[:len(got)], got)
		}
	}
}

// TestStealSweepSkewedDeterministic covers the forEachParallel side of
// the chunk runner: a sweep whose per-point cost varies is evaluated
// position-stably for every worker count.
func TestStealSweepSkewedDeterministic(t *testing.T) {
	cat := catalog.SyntheticSkewed(4, 4, 4, 120)
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV:       cat.UAVNames()[3], // the expensive airframe
		Compute:   cat.ComputeNames()[0],
		Algorithm: cat.AlgorithmNames()[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SweepContext(context.Background(), cfg, KnobPayload, 10, 900, 300, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 9} {
		got, err := SweepContext(context.Background(), cfg, KnobPayload, 10, 900, 300, false, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want.Points {
			if !reflect.DeepEqual(want.Points[i], got.Points[i]) {
				t.Fatalf("workers=%d: point %d diverges", workers, i)
			}
		}
	}
}

// TestForEachParallelLowestError: when several indices fail, the
// reported error is the lowest-indexed failure, exactly as a serial
// loop reports it. Claims are ascending, so every chunk below a failing
// one is claimed and runs to its own first failure.
func TestForEachParallelLowestError(t *testing.T) {
	n := 500
	err := forEachParallel(context.Background(), n, 8, func(i int) error {
		if i%97 == 0 && i > 0 { // fails at 97, 194, ...
			return fmt.Errorf("eval %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error surfaced")
	}
	var idx int
	if _, scanErr := fmt.Sscanf(err.Error(), "eval %d failed", &idx); scanErr != nil {
		t.Fatalf("unexpected error %q", err)
	}
	if idx != 97 {
		t.Fatalf("reported index %d, want the lowest failure 97", idx)
	}
}

// TestStealCancellationNoLeaks is the cancellation leak check on a
// skewed space: cancelling an exploration mid-stream — workers parked
// waiting for a lookahead permit, others mid-chunk — must wind every
// goroutine down and surface context.Canceled, round after round.
func TestStealCancellationNoLeaks(t *testing.T) {
	e := skewedExplorer(8, 4)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var got []Candidate
		var sawErr error
		for cand, err := range e.Candidates(ctx) {
			if err != nil {
				sawErr = err
				break
			}
			got = append(got, cand)
			if len(got) == 2+7*round { // vary the cancellation point
				cancel()
			}
		}
		cancel()
		if sawErr == nil {
			t.Fatalf("round %d: cancelled exploration completed without error", round)
		}
		if !errors.Is(sawErr, context.Canceled) {
			t.Fatalf("round %d: error = %v, want context.Canceled", round, sawErr)
		}
	}
	if n := goroutineCount(t, baseline, 5*time.Second); n > baseline {
		t.Fatalf("goroutines after cancelled rounds: %d, baseline %d — scheduler leaked", n, baseline)
	}
}

// TestForEachParallelCancelNoLeaks covers the sweep path: cancellation
// mid-grid returns ctx's error and the pool's goroutines exit.
func TestForEachParallelCancelNoLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var evals atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		var err error
		go func() {
			defer wg.Done()
			err = forEachParallel(ctx, 10000, 8, func(i int) error {
				if evals.Add(1) == 50 {
					cancel()
				}
				return nil
			})
		}()
		wg.Wait()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: err = %v, want context.Canceled", round, err)
		}
	}
	if n := goroutineCount(t, baseline, 5*time.Second); n > baseline {
		t.Fatalf("goroutines after cancelled sweeps: %d, baseline %d", n, baseline)
	}
}

// countingEvaluator is a heavy test objective that counts its calls and
// fails every candidate at or above failFrom (when failFrom >= 0).
type countingEvaluator struct {
	calls    atomic.Int64
	failFrom int
}

func (*countingEvaluator) Name() string { return "test.counting" }
func (*countingEvaluator) Seed() int64  { return 0 }
func (*countingEvaluator) Heavy() bool  { return true }
func (*countingEvaluator) Columns() []ObjectiveColumn {
	return []ObjectiveColumn{{Name: "index", Maximize: true}}
}

func (e *countingEvaluator) Evaluate(_ context.Context, cand *Candidate, _ int64, out []float64) error {
	e.calls.Add(1)
	if e.failFrom >= 0 && cand.Index >= e.failFrom {
		return fmt.Errorf("candidate %d failed", cand.Index)
	}
	out[0] = float64(cand.Index)
	return nil
}

// TestStreamLookaheadIsBounded: a stream whose consumer stops after the
// first grain never lets the pool evaluate more than ahead grains past
// the consumed one, however long the consumer dawdles.
func TestStreamLookaheadIsBounded(t *testing.T) {
	const workers, grain = 4, 8
	ahead := max(2*workers, 4)
	cat := catalog.Synthetic(5, 16, 16) // 1280 candidates, 160 grains
	ev := &countingEvaluator{failFrom: -1}
	e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: workers, ChunkSize: grain, Objective: ev}
	got := 0
	for _, err := range e.Candidates(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if got++; got == 1 {
			time.Sleep(50 * time.Millisecond) // let the workers run as far ahead as they may
		}
		if got == grain {
			break
		}
	}
	// The stream returns only after its workers exit, so the count is
	// final here.
	if calls, limit := ev.calls.Load(), int64((1+ahead)*grain); calls > limit {
		t.Fatalf("pool evaluated %d candidates for a consumer that took one grain, want at most %d", calls, limit)
	}
}

// TestExploreContextLowestErrorMatchesSerial is forEachParallel's
// lowest-error check on the ExploreContext pool path: every candidate
// from a known index on fails, and every worker count and grain must
// report exactly the error the inline scan hits first.
func TestExploreContextLowestErrorMatchesSerial(t *testing.T) {
	cat := catalog.Synthetic(5, 16, 16) // 1280 candidates
	explore := func(workers, grain int) error {
		e := Explorer{Catalog: cat, Space: synthSpace(cat), Workers: workers, ChunkSize: grain,
			Objective: &countingEvaluator{failFrom: 301}}
		cands, err := e.ExploreContext(context.Background())
		if cands != nil {
			t.Fatalf("workers=%d grain=%d: failed exploration returned %d candidates", workers, grain, len(cands))
		}
		return err
	}
	want := explore(1, 0)
	if want == nil {
		t.Fatal("serial exploration did not fail")
	}
	for _, workers := range []int{2, 4, 8} {
		for _, grain := range []int{0, 1, 7, 64} {
			if got := explore(workers, grain); got == nil || got.Error() != want.Error() {
				t.Fatalf("workers=%d grain=%d: err = %v, want %v", workers, grain, got, want)
			}
		}
	}
}
