package explore

import (
	"testing"

	"repro/internal/memsim"
)

// BenchmarkExpand times one worker expanding two states of the unguarded
// linked-list search at the bounds the explore benchmark and
// `edb-bench -explore` use (cap 5, depth 32): the root and a depth-2 state.
// Each expansion runs the state's segment once and captures every child
// on the way, so ns/op and allocs/op are the per-state cost of the single
// pass and the hash-first capture.
func BenchmarkExpand(b *testing.B) {
	cfg := benchConfig(false)
	if err := cfg.applyDefaults(); err != nil {
		b.Fatal(err)
	}
	w, err := newWorker(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	states := []ShardState{{Delta: &memsim.Delta{Region: "FRAM"}, Hash: w.baseHash}}
	for depth := 1; depth <= 2; depth++ {
		parent := states[len(states)-1]
		e, err := w.expand(parent, true)
		if err != nil {
			b.Fatal(err)
		}
		found := false
		for _, c := range e.Children {
			if c.Hash != parent.Hash {
				states = append(states, ShardState{ID: depth, Depth: depth, Hash: c.Hash, Delta: c.Delta})
				found = true
				break
			}
		}
		if !found {
			b.Fatalf("depth %d: no child differs from its parent", depth)
		}
	}
	expand := []ShardState{states[0], states[2]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range expand {
			if _, err := w.expand(st, true); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSearch times both linked-list searches, unguarded then guarded,
// at the bounds the explore benchmark uses (cap 5, depth 32, 8,192 states,
// one worker). One op is one whole search of each build: rig set-up, every
// wave's expansion and dedup, and the report, so allocs/op is the
// allocation of a search, not of one state.
func BenchmarkSearch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, guards := range []bool{false, true} {
			cfg := benchConfig(guards)
			cfg.Workers = 1
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
