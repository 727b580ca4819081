package sim

import "math/rand"

// lfSource is math/rand's additive lagged Fibonacci generator (the source
// rand.NewSource returns): the same 607-word register, the same tap and the
// same seeding, so every stream is bit-identical to the stdlib's. Only the
// seeding is computed differently. The stdlib walks a serial chain of 1841
// Lehmer steps, x ← 48271·x mod (2³¹−1); here each of the 1821 values the
// register keeps is x₀·48271ᵏ mod (2³¹−1), read from a power table, so the
// products are independent and a seed costs about a quarter as much.
type lfSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
	// lehmerSkip is the number of Lehmer steps the stdlib discards before
	// the first value it keeps.
	lehmerSkip = 20
)

var (
	// lehmerPow[i][j] is 48271^(lehmerSkip+1+3i+j) mod (2³¹−1): the power
	// that takes the seed to the j-th Lehmer value mixed into word i.
	lehmerPow [rngLen][3]uint64
	// rngCooked is math/rand's fixed per-word seeding mask.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k <= lehmerSkip; k++ {
		p = p * lehmerA % int32max
	}
	for i := range lehmerPow {
		for j := range lehmerPow[i] {
			lehmerPow[i][j] = p
			p = p * lehmerA % int32max
		}
	}

	// Recover the cooked mask from the stdlib itself rather than carrying
	// a copy of its table: after 607 draws every register word has been
	// overwritten by exactly one output, so the draws give the register
	// outright, and each step x[feed] += x[tap] is undone in reverse order.
	// What is left is seed 1's starting register; XOR-ing out seed 1's
	// Lehmer words leaves the mask.
	ref := rand.NewSource(1).(rand.Source64)
	var g lfSource
	g.tap, g.feed = 0, rngLen-rngTap
	var feeds, taps [rngLen]int
	for k := range feeds {
		g.step()
		feeds[k], taps[k] = g.feed, g.tap
		g.vec[g.feed] = int64(ref.Uint64())
	}
	for k := rngLen - 1; k >= 0; k-- {
		g.vec[feeds[k]] -= g.vec[taps[k]]
	}
	var one lfSource
	one.seed(1) // rngCooked is still zero, so this is seed 1's Lehmer words
	for i := range rngCooked {
		rngCooked[i] = g.vec[i] ^ one.vec[i]
	}
}

// seed resets the register to the stdlib's starting state for seed.
func (g *lfSource) seed(seed int64) {
	g.tap = 0
	g.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range g.vec {
		p := &lehmerPow[i]
		u := mulmod(x, p[0]) << 40
		u ^= mulmod(x, p[1]) << 20
		u ^= mulmod(x, p[2])
		g.vec[i] = u ^ rngCooked[i]
	}
}

// mulmod returns x·p mod (2³¹−1) for x, p in [1, 2³¹−1): the product
// folds at bit 31, since 2³¹ ≡ 1, and is never a multiple of the prime.
func mulmod(x, p uint64) int64 {
	v := x * p
	v = v&int32max + v>>31
	if v >= int32max {
		v -= int32max
	}
	return int64(v)
}

// step moves the tap and feed indices back one word.
func (g *lfSource) step() {
	g.tap--
	if g.tap < 0 {
		g.tap += rngLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += rngLen
	}
}

// Uint64 returns the next 64-bit output, as rand.Source64's Uint64 does.
func (g *lfSource) Uint64() uint64 {
	g.step()
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}
