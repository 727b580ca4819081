// Package parallel is the deterministic worker pool behind the experiment
// harness. Experiments in this repo are embarrassingly parallel at the trial
// level: every trial, build, panel, or sweep point owns an independent
// sim.Clock, device.Device, and sim.RNG, so work items never share mutable
// state. The pool exploits that while keeping a hard guarantee: results are
// bit-for-bit identical to a sequential run.
//
// The guarantee rests on two rules callers must follow:
//
//  1. The number and identity of work items is a pure function of the
//     experiment config — never of the worker count. Shard sizes, sweep
//     points, and panel lists are computed from the config alone.
//  2. Each work item derives all of its randomness from (seed, index) —
//     e.g. via ShardSeed or sim.RNG.Split with an item-specific label —
//     never from a stream shared across items.
//
// Under those rules, Map with one worker and Map with N workers execute the
// same item functions on the same inputs and collect results in index order,
// so the output is identical regardless of scheduling.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var workers atomic.Int64

func init() { workers.Store(int64(runtime.GOMAXPROCS(0))) }

// Workers returns the current worker bound.
func Workers() int { return int(workers.Load()) }

// SetWorkers bounds the number of concurrent work items and returns the
// previous bound. n < 1 is clamped to 1 (fully sequential). The default is
// GOMAXPROCS at package init.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int64(n)))
}

// Map runs fn(0), fn(1), …, fn(n-1) on up to Workers() goroutines and
// returns the results in index order. If any item returns an error, Map
// returns the error from the lowest-indexed failing item (matching what a
// sequential fail-fast loop would report). A panic in a work item is
// re-raised on the calling goroutine.
//
// With Workers() <= 1, Map degenerates to a plain sequential loop — the
// golden baseline the parallel path is tested against.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN(n, Workers(), fn)
}

// MapN is Map with an explicit worker bound for this call only, leaving the
// process-wide SetWorkers bound untouched. Callers that carry their own
// worker-count configuration (the exhaustive explorer's Config.Workers, the
// worker-scaling legs of benchmarks) use it so concurrent pipelines don't
// fight over the global bound.
func MapN[T any](n, w int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	// Only the lowest-indexed failure is ever reported, so that is all the
	// workers keep: the parallel path allocates nothing per item. One
	// struct holds the shared state, so it escapes as one allocation.
	var st struct {
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first int // lowest failing index so far; n if none
		err   error
		pval  any // the panic value of item first, if it panicked
	}
	st.first = n
	fail := func(i int, err error, pval any) {
		st.mu.Lock()
		if i < st.first {
			st.first, st.err, st.pval = i, err, pval
		}
		st.mu.Unlock()
	}
	st.wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer st.wg.Done()
			for {
				i := int(st.next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							fail(i, nil, r)
						}
					}()
					v, err := fn(i)
					out[i] = v
					if err != nil {
						fail(i, err, nil)
					}
				}()
			}
		}()
	}
	st.wg.Wait()
	if st.pval != nil {
		panic(st.pval)
	}
	if st.err != nil {
		return nil, st.err
	}
	return out, nil
}

// ForEach is Map for item functions with no result value.
func ForEach(n int, fn func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// ShardSeed derives an independent RNG seed for work item index from a base
// seed, using a splitmix64-style finalizer. The mapping is fixed — it is
// part of every experiment's deterministic output — so do not change it.
func ShardSeed(seed int64, index int) int64 {
	z := uint64(seed) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
