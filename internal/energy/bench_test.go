package energy

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkSupplyStep is one energy-integration step of the WISP 5 supply
// under the default noisy RF harvester and the MCU's active load: the
// Friis memo, one fading draw, the capacitor update and the bookkeeping.
// The store drains under this load, so it is topped up at brown-out to
// keep every step in the same regime.
func BenchmarkSupplyStep(b *testing.B) {
	s := WISP5Supply(NewRFHarvester())
	s.Cap.SetVoltage(2.4)
	load := units.MilliAmps(1.2)
	dt := units.Seconds(64.0 / 4e6) // one default quantum at 4 MHz
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Step(load, dt) == PowerOff {
			s.Cap.SetVoltage(2.4)
		}
	}
}
