package parallel

import "testing"

// BenchmarkForEach is the fan-out the fleet pays once per time slice: 2,000
// tags over 2 workers, with item functions that do no work, so what is
// left is the pool's own cost.
func BenchmarkForEach(b *testing.B) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ForEach(2000, func(int) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
