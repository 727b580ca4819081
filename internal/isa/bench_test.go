package isa

import (
	"testing"

	"repro/internal/memsim"
)

// BenchmarkStep is one instruction of a register loop (inc, inc, add,
// jmp) on a powered device: fetch ticks, dispatch and execution, with the
// image decoded on every fetch or served from the decode cache the way a
// flashed Program runs it.
func BenchmarkStep(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "decode"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			d, env, c := cpuRig(b)
			img, err := Assemble(".org 0x4500\nmain: inc r5\n inc r6\n add r5, r7\n jmp main\n")
			if err != nil {
				b.Fatal(err)
			}
			for i, w := range img.Words {
				if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
					b.Fatal(err)
				}
			}
			if cached {
				c.EnableDecodeCache(d.FRAM, img.Org, img.Size())
			}
			c.Reset(img.Entry, uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Step(env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
