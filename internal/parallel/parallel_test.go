package parallel

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapIndexOrder(t *testing.T) {
	prev := SetWorkers(8)
	defer SetWorkers(prev)
	got, err := Map(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapMatchesSequential(t *testing.T) {
	fn := func(i int) (int64, error) { return ShardSeed(42, i), nil }
	prev := SetWorkers(1)
	seq, err := Map(64, fn)
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(7)
	par, err := Map(64, fn)
	SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %d != parallel %d", i, seq[i], par[i])
		}
	}
}

func TestMapNIgnoresGlobalBound(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	var inFlight, peak atomic.Int64
	barrier := make(chan struct{})
	got, err := MapN(8, 4, func(i int) (int, error) {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		// Rendezvous: with a per-call bound of 4 despite the global bound
		// of 1, items 0 and 1 must be in flight at the same time for the
		// unbuffered send/receive pair to complete.
		switch i {
		case 0:
			barrier <- struct{}{}
		case 1:
			<-barrier
		}
		inFlight.Add(-1)
		return i * 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency = %d, want >= 2 under MapN(.., 4, ..)", peak.Load())
	}
}

func TestMapNSequentialBound(t *testing.T) {
	var inFlight, peak atomic.Int64
	_, err := MapN(16, 1, func(i int) (int, error) {
		if n := inFlight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		inFlight.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 1 {
		t.Fatalf("peak concurrency = %d, want 1", peak.Load())
	}
}

func TestMapLowestError(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	_, err := Map(20, func(i int) (int, error) {
		if i%7 == 6 {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "item 6 failed" {
		t.Fatalf("want lowest-index error, got %v", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	_, _ = Map(8, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
}

// Errors and panics rank together: the lowest-indexed failure decides
// whether Map returns an error or re-raises a panic, as in a sequential
// loop.
func TestMapLowestFailureWins(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	run := func(errAt, panicAt int) (err error, pval any) {
		defer func() { pval = recover() }()
		_, err = Map(20, func(i int) (int, error) {
			switch i {
			case errAt:
				return 0, fmt.Errorf("item %d failed", i)
			case panicAt:
				panic(fmt.Sprintf("item %d panicked", i))
			}
			return i, nil
		})
		return err, nil
	}
	if err, pval := run(5, 9); pval != nil || err == nil || err.Error() != "item 5 failed" {
		t.Fatalf("error at 5, panic at 9: got error %v, panic %v", err, pval)
	}
	if err, pval := run(7, 3); pval != "item 3 panicked" {
		t.Fatalf("panic at 3, error at 7: got error %v, panic %v", err, pval)
	}
}

func TestForEach(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	var sum atomic.Int64
	if err := ForEach(50, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 49*50/2 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

// The parallel path keeps only the lowest-indexed failure, so neither the
// number of allocations nor their bytes grow with the number of items: the
// fleet fans out over every tag once per time slice. Each size keeps its
// least over a few calls, so a stray runtime allocation cannot fail it.
func TestMapNAllocationDoesNotGrowWithItems(t *testing.T) {
	measure := func(n int) (allocs, bytes uint64) {
		allocs, bytes = math.MaxUint64, math.MaxUint64
		for r := 0; r < 5; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := MapN(n, 2, func(int) (struct{}, error) { return struct{}{}, nil }); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, bytes
	}
	smallAllocs, smallBytes := measure(100)
	largeAllocs, largeBytes := measure(100_000)
	if largeAllocs > smallAllocs || largeBytes > smallBytes+512 {
		t.Fatalf("100 items: %d allocations, %d B; 100,000 items: %d allocations, %d B",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}

func TestShardSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 256; i++ {
			s := ShardSeed(seed, i)
			if seen[s] {
				t.Fatalf("collision at seed=%d index=%d", seed, i)
			}
			seen[s] = true
		}
	}
	if ShardSeed(1, 0) != ShardSeed(1, 0) {
		t.Fatal("ShardSeed not deterministic")
	}
}

func TestSetWorkersClamp(t *testing.T) {
	prev := SetWorkers(-3)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", Workers())
	}
	SetWorkers(prev)
}
