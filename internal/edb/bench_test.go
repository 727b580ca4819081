package edb_test

import (
	"testing"

	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
)

// benchTarget returns a powered WISP 5 with EDB attached — its leakage
// probe and its ADC sampler both on the step path — under a noisy RF
// harvester close enough that the store never browns out.
func benchTarget(b *testing.B) *device.Env {
	h := energy.NewRFHarvester()
	h.Distance = 0.3
	d := device.NewWISP5(h, 1)
	edb.New(edb.DefaultConfig()).Attach(d)
	if !d.IdleCharge(10) {
		b.Fatal("target never powered on")
	}
	return &device.Env{D: d}
}

// BenchmarkAdvanceWithEDB is the cost every Env call pays: advance the
// clock, integrate the supply with EDB's probe leakage, and run EDB's
// sampler when it is due. "compute" is a bare 3-cycle step; "app-pin"
// adds the GPIO edge EDB records in its event log, as the Fig. 7 app's
// main loop does twice per iteration.
func BenchmarkAdvanceWithEDB(b *testing.B) {
	b.Run("compute", func(b *testing.B) {
		env := benchTarget(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.Compute(3)
		}
	})
	b.Run("app-pin", func(b *testing.B) {
		env := benchTarget(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env.TogglePin(device.LineAppPin)
		}
	})
}
