package scenario_test

import (
	"io"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkPoolWarmSession times one warm session of the Fig. 7 linked
// list with tracing on: the fork of the template, the simulation from the
// last power-on before the assert to the assert, a short script and the
// run summary.
func BenchmarkPoolWarmSession(b *testing.B) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: 14, Script: "vcap;status;halt"}
	pool := scenario.NewPool()
	if _, err := pool.Run(spec, io.Discard, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Run(spec, io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
	if m := pool.Metrics(); m.WarmForks != uint64(b.N) {
		b.Fatalf("%d of %d sessions forked the template", m.WarmForks, b.N)
	}
}
