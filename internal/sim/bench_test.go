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
