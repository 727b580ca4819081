package sim

import (
	"math/rand"
	"testing"
)

// The counting source must not perturb any stream: an RNG built on it has
// to emit exactly what rand.New(rand.NewSource(seed)) emits for every
// method the simulator uses.
func TestCountingSourcePreservesStreams(t *testing.T) {
	g := NewRNG(42)
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 1200; i++ {
		switch i % 6 {
		case 0:
			if a, b := g.Float64(), ref.Float64(); a != b {
				t.Fatalf("Float64 diverged at draw %d: %v != %v", i, a, b)
			}
		case 1:
			if a, b := g.NormFloat64(), ref.NormFloat64(); a != b {
				t.Fatalf("NormFloat64 diverged at draw %d: %v != %v", i, a, b)
			}
		case 2:
			if a, b := g.Intn(1000), ref.Intn(1000); a != b {
				t.Fatalf("Intn diverged at draw %d: %v != %v", i, a, b)
			}
		case 3:
			if a, b := g.Uint16(), uint16(ref.Uint32()); a != b {
				t.Fatalf("Uint16 diverged at draw %d: %v != %v", i, a, b)
			}
		case 4:
			if a, b := g.Bernoulli(0.3), ref.Float64() < 0.3; a != b {
				t.Fatalf("Bernoulli diverged at draw %d", i)
			}
		case 5:
			if a, b := g.Jitter(1.5e-3, 0.25), 1.5e-3*(1+0.25*(2*ref.Float64()-1)); a != b {
				t.Fatalf("Jitter diverged at draw %d: %v != %v", i, a, b)
			}
		}
	}
}

func TestRNGStateRestore(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 137; i++ {
		g.Float64()
	}
	st := g.State()
	want := make([]float64, 50)
	for i := range want {
		want[i] = g.Float64()
	}

	// Fast-forward: a fresh RNG on the same seed advances in place.
	f := NewRNG(7)
	f.Float64() // some draws already consumed
	f.RestoreState(st)
	for i, w := range want {
		if got := f.Float64(); got != w {
			t.Fatalf("fast-forward restore diverged at draw %d", i)
		}
	}

	// Rewind: restoring an earlier position on the same RNG rebuilds the
	// stream from the seed.
	g.RestoreState(st)
	for i, w := range want {
		if got := g.Float64(); got != w {
			t.Fatalf("rewind restore diverged at draw %d", i)
		}
	}

	// Cross-seed: restore adopts the snapshot's seed.
	x := NewRNG(999)
	x.RestoreState(st)
	if got := x.Float64(); got != want[0] {
		t.Fatal("cross-seed restore diverged")
	}
	if x.State() != (RNGState{Seed: 7, Draws: st.Draws + 1}) {
		t.Fatalf("unexpected state after cross-seed restore: %+v", x.State())
	}
}

func TestClockSetNow(t *testing.T) {
	c := NewClock(0)
	c.Advance(100)
	if err := c.SetNow(5_000); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 5_000 {
		t.Fatalf("Now = %d, want 5000", c.Now())
	}
	ev := c.Schedule(6_000, func() {})
	if err := c.SetNow(0); err == nil {
		t.Fatal("SetNow with a pending event should error")
	}
	ev.Cancel()
	if err := c.SetNow(0); err != nil {
		t.Fatal(err)
	}
}

// A Snapshot state carries the register: restoring it copies the register
// instead of replaying the stream, onto a fresh RNG, one on another seed or
// one already past the position, and the snapshot stays usable after the
// restored RNG draws on.
func TestRNGSnapshotCarriesRegister(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		g.Float64()
	}
	st := g.Snapshot()
	if st.reg == nil || st.Draws != g.State().Draws {
		t.Fatalf("snapshot past the prefix must carry the register: %+v", st)
	}
	want := make([]float64, 50)
	for i := range want {
		want[i] = g.Float64()
	}
	ahead := NewRNG(7)
	for i := 0; i < 5000; i++ {
		ahead.Float64()
	}
	for name, r := range map[string]*RNG{"fresh": NewRNG(7), "other seed": NewRNG(99), "ahead": ahead} {
		for round := 0; round < 2; round++ {
			r.RestoreState(st)
			for i, w := range want {
				if got := r.Float64(); got != w {
					t.Fatalf("%s, round %d: draw %d = %v, want %v", name, round, i, got, w)
				}
			}
		}
	}
	if early := NewRNG(7).Snapshot(); early.reg != nil {
		t.Fatal("a stream inside its prefix has no register to carry")
	}
}
