package sim

import (
	"math"
	"math/rand"
	"testing"
)

// lfSource must be math/rand's generator bit for bit: checkSource reseeds
// g in place and compares 2×607 outputs, so the comparison runs through
// every register word twice — once as seeded, once as fed back.
func checkSource(t *testing.T, g *lfSource, seed int64) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	g.seed(seed)
	for i := 0; i < 2*rngLen+1; i++ {
		if a, b := g.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("seed %d: output %d is %#x, math/rand gives %#x", seed, i, a, b)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, -1, 1, 1117, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 3*int32max + 1, int32max * int32max,
		math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(20160402))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	// One register serves every seed, so each check after the first also
	// shows that reseeding in place leaks nothing from the last stream.
	var g lfSource
	for _, s := range seeds {
		checkSource(t, &g, s)
	}
}

// An RNG that is never drawn holds no register: building one for a stream
// nobody reads (a harvester with noise off) costs no seeding.
func TestRNGRegisterIsLazy(t *testing.T) {
	g := NewRNG(1117)
	if g.src.g != nil {
		t.Fatal("a fresh RNG already holds a register")
	}
	if st := g.State(); st != (RNGState{Seed: 1117, Draws: 0}) {
		t.Fatalf("State of an undrawn RNG = %+v", st)
	}
	g.RestoreState(RNGState{Seed: 42, Draws: 0})
	if g.src.g != nil {
		t.Fatal("restoring to the start of a stream built a register")
	}
	want := rand.New(rand.NewSource(42)).Float64()
	if got := g.Float64(); got != want {
		t.Fatalf("first draw after restore = %v, want %v", got, want)
	}
	if g.src.g == nil {
		t.Fatal("a drawn RNG holds no register")
	}
}

// Rewinding reseeds the existing register in place, so a restore to an
// earlier position (the explorer's backtrack) allocates nothing.
func TestRNGRestoreRewindAllocatesNothing(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 100; i++ {
		g.Float64()
	}
	early := g.State()
	for i := 0; i < 100; i++ {
		g.Float64()
	}
	late := g.State()
	allocs := testing.AllocsPerRun(50, func() {
		g.RestoreState(early)
		g.RestoreState(late)
	})
	if allocs != 0 {
		t.Fatalf("rewind and replay allocated %v times per run", allocs)
	}
	g.RestoreState(early)
	ref := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		want := ref.Float64()
		if i < 100 {
			continue
		}
		if got := g.Float64(); got != want {
			t.Fatalf("draw %d after rewind = %v, want %v", i, got, want)
		}
	}
}
