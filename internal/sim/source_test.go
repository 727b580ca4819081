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

// sourceSeeds are the seeds TestSourceMatchesMathRand checks.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, -1, 1, 1117, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 3*int32max + 1, int32max * int32max,
		math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(20160402))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// The counted source must be math/rand's stream through each of its
// phases: the prefix draws served from seed words, the draw that builds
// the register, and 2×607 draws from the register after it. One source
// serves every seed, so from the second seed on the register is reseeded
// in place over a stale stream.
func TestCountingSourceMatchesMathRand(t *testing.T) {
	var s countingSource
	for _, seed := range sourceSeeds() {
		s.Seed(seed)
		ref := rand.NewSource(seed)
		for i := 0; i <= rngPrefix+2*rngLen; i++ {
			if a, b := s.Int63(), ref.Int63(); a != b {
				t.Fatalf("seed %d: draw %d is %#x, math/rand gives %#x", seed, i, a, b)
			}
		}
	}
}

// checkDraws compares g's next n draws with math/rand's stream at the
// same position.
func checkDraws(t *testing.T, g *RNG, n int) {
	t.Helper()
	st := g.State()
	ref := rand.NewSource(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		ref.Int63()
	}
	for i := 0; i < n; i++ {
		if a, b := g.src.Int63(), ref.Int63(); a != b {
			t.Fatalf("%+v: draw %d after restore is %#x, math/rand gives %#x", st, i, a, b)
		}
	}
}

// RestoreState lands anywhere around the prefix: at its start, on its
// last draw, on the draw that builds the register, just past it, far
// past it, and back inside it over a register that is already built.
func TestRNGRestoreAcrossPrefix(t *testing.T) {
	g := NewRNG(1117)
	for _, draws := range []uint64{0, rngPrefix - 1, rngPrefix, rngPrefix + 1, 1000, 3} {
		g.RestoreState(RNGState{Seed: 2016, Draws: draws})
		if st := g.State(); st != (RNGState{Seed: 2016, Draws: draws}) {
			t.Fatalf("restore to %d draws left State = %+v", draws, st)
		}
		checkDraws(t, g, 2*rngLen)
	}
}

// An RNG holds no register until its stream outgrows the prefix: a stream
// nobody reads (a harvester with noise off) or one read a few times (a
// device stream that only seeds a Split) costs no seeding.
func TestRNGRegisterIsLazy(t *testing.T) {
	g := NewRNG(1117)
	if g.src.g.vec != nil {
		t.Fatal("a fresh RNG already holds a register")
	}
	if st := g.State(); st != (RNGState{Seed: 1117, Draws: 0}) {
		t.Fatalf("State of an undrawn RNG = %+v", st)
	}
	g.RestoreState(RNGState{Seed: 42, Draws: rngPrefix})
	if g.src.g.vec != nil {
		t.Fatal("restoring to the end of the prefix built a register")
	}
	g.RestoreState(RNGState{Seed: 42, Draws: 0})
	ref := rand.NewSource(42)
	for i := 0; i < rngPrefix; i++ {
		if a, b := g.src.Int63(), ref.Int63(); a != b {
			t.Fatalf("draw %d = %#x, want %#x", i, a, b)
		}
	}
	if g.src.g.vec != nil {
		t.Fatalf("%d draws built a register", rngPrefix)
	}
	if a, b := g.src.Int63(), ref.Int63(); a != b {
		t.Fatalf("draw %d = %#x, want %#x", rngPrefix, a, b)
	}
	if g.src.g.vec == nil {
		t.Fatalf("draw %d built no register", rngPrefix+1)
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
