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

// TestStealRunCoversSpaceExactlyOnce drives the raw scheduler over many
// (n, workers, grain) shapes and asserts every index is processed
// exactly once — the invariant all determinism rests on — including
// shapes that force heavy stealing (grain 1, workers ≫ spans).
func TestStealRunCoversSpaceExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 5, 16} {
			for _, grain := range []int{1, 8, 512} {
				counts := make([]atomic.Int32, n)
				stealRun(context.Background(), n, workers, grain, func(_ int, g span) bool {
					for i := g.start; i < g.end; i++ {
						counts[i].Add(1)
					}
					return true
				})
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
// skewed space — where workers rebalance constantly through steal-half
// splitting — the parallel stream must stay element-for-element
// identical to the serial scan for every worker count and grain size.
// Run under -race (CI does) it also hammers the deque/sink locking.
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
			// The streaming path merges through the ordered sink; it
			// must agree too, including under an early break.
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
// the scheduler: a sweep whose per-point cost varies is evaluated
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
// reported error is the lowest-indexed recorded failure, exactly as the
// fixed-chunk scheduler promised.
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
	// Abort-on-first-error means not every failure is recorded, but the
	// reported one can never be preceded by an unreported recorded one;
	// with uniform costs the lowest failing index is reliably seen.
	var idx int
	if _, scanErr := fmt.Sscanf(err.Error(), "eval %d failed", &idx); scanErr != nil {
		t.Fatalf("unexpected error %q", err)
	}
	if idx%97 != 0 {
		t.Fatalf("reported index %d is not a failure site", idx)
	}
}

// TestStealCancellationNoLeaks is the steal-under-cancellation leak
// check: cancelling a skewed exploration mid-stream — workers blocked
// on the reorder buffer, thieves mid-steal — must wind every goroutine
// down and surface context.Canceled, round after round.
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
