package sim

import "testing"

var benchSink float64

// BenchmarkRNGJitter is the harvester-noise draw every energy quantum of
// a noisy RF supply pays: one counted source draw, converted to a float.
func BenchmarkRNGJitter(b *testing.B) {
	g := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += g.Jitter(1, 0.25)
	}
}

// BenchmarkNewRNG is what a short stream costs, such as a device stream
// that only seeds a Split: construction and one draw served from the seed
// words, with no register.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += NewRNG(int64(i)).Float64()
	}
}

// BenchmarkRNGPastPrefix is what a long stream pays up to a few draws past
// the prefix: construction, the prefix draws, the register, its seeding
// and its fast-forward.
func BenchmarkRNGPastPrefix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewRNG(int64(i))
		for k := 0; k < rngPrefix+4; k++ {
			benchSink += g.Float64()
		}
	}
}
