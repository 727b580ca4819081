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

// BenchmarkNewRNG is what every stream a device, harvester or peripheral
// opens costs up to its first draw: construction, the register and its
// seeding.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink += NewRNG(int64(i)).Float64()
	}
}
