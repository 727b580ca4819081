package explore

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/memsim"
)

// BenchmarkExpand times one worker expanding two states of the unguarded
// linked-list search at the bounds the explore benchmark and
// `edb-bench -explore` use (cap 5, depth 32): the root and a depth-2 state.
// Each expansion runs the state's segment once and captures every child
// on the way, so ns/op and allocs/op are the per-state cost of the single
// pass and the hash-first capture.
func BenchmarkExpand(b *testing.B) {
	cfg := Config{
		NewRig: func() (*device.Device, device.Program, error) {
			return core.ExploreTarget(&apps.LinkedList{}, 42)
		},
		Mode:          ModeWrite,
		MaxCandidates: 5,
		MaxDepth:      32,
		MaxStates:     8192,
	}
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
