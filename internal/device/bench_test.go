package device

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/memsim"
)

var benchSink uint16

// BenchmarkNewDevice is what each fleet tag pays for its device before it
// simulates anything: an RF harvester with fading off (the fleet's
// default), the WISP 5 device around it, the device stream's first draw
// (the Split every app's peripherals take) and a first store to each of
// SRAM and FRAM.
func BenchmarkNewDevice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := energy.NewRFHarvester()
		h.Noise = nil
		h.NoiseFrac = 0
		d := NewWISP5(h, int64(i))
		d.RNG.Split("accel")
		if err := d.Mem.WriteWord(memsim.SRAMBase, 1); err != nil {
			b.Fatal(err)
		}
		if err := d.Mem.WriteWord(memsim.FRAMBase, 1); err != nil {
			b.Fatal(err)
		}
		benchSink += d.RNG.Uint16()
	}
}
