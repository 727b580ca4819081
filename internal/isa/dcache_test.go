package isa

import (
	"testing"

	"repro/internal/device"
	"repro/internal/memsim"
	"repro/internal/sim"
)

func TestDecodeCacheInvalidationOnCodeWrite(t *testing.T) {
	d, env, c := cpuRig(t)
	img, err := Assemble(".org 0x4500\nmain: mov #0x1111, r5\nhang: jmp hang\n")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range img.Words {
		if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableDecodeCache(d.FRAM, img.Org, img.Size())
	stackTop := uint16(memsim.SRAMBase) + uint16(memsim.SRAMSize)

	c.Reset(img.Entry, stackTop)
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if c.R[5] != 0x1111 {
		t.Fatalf("r5 = %#x", c.R[5])
	}

	// Overwrite the immediate extension word, as a wild store into code
	// would. The cached decode of the mov must be invalidated.
	if err := d.Mem.WriteWord(memsim.Addr(img.Org)+2, 0x2222); err != nil {
		t.Fatal(err)
	}
	c.Reset(img.Entry, stackTop)
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if c.R[5] != 0x2222 {
		t.Fatalf("r5 = %#x after code write: stale decode cache", c.R[5])
	}

	// Overwrite the opcode word itself: retarget the mov from r5 to r6.
	img2, err := Assemble(".org 0x4500\nmain: mov #0x2222, r6\nhang: jmp hang\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mem.WriteWord(memsim.Addr(img.Org), img2.Words[0]); err != nil {
		t.Fatal(err)
	}
	c.Reset(img.Entry, stackTop)
	c.R[5] = 0
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if c.R[6] != 0x2222 || c.R[5] != 0 {
		t.Fatalf("r5 = %#x, r6 = %#x after opcode write: stale decode cache", c.R[5], c.R[6])
	}
}

// TestDecodeCacheTimingEquivalence checks the cached fast path is
// cycle-for-cycle and access-for-access identical to fetch-and-decode,
// across addressing modes including symbolic (PC-relative) operands.
func TestDecodeCacheTimingEquivalence(t *testing.T) {
	src := `.org 0x4500
main:	mov #0, r5
	mov #data, r8
loop:	add #1, r5
	mov r5, &0x1C20
	add &0x1C20, r7
	mov data, r6
	mov r6, data2
	add @r8, r7
	cmp #200, r5
	jne loop
hang:	jmp hang
data:	.word 0x1234
data2:	.word 0
`
	type snap struct {
		now       sim.Cycles
		reads     uint64
		retired   uint64
		regs      [16]uint16
		voltage   float64
		dataWords [2]uint16
	}
	exec := func(cache bool) snap {
		d, env, c := cpuRig(t)
		img, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range img.Words {
			if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
				t.Fatal(err)
			}
		}
		if cache {
			c.EnableDecodeCache(d.FRAM, img.Org, img.Size())
		}
		c.Reset(img.Entry, uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize))
		base := d.FRAM.Reads
		for i := 0; i < 1500; i++ {
			if err := c.Step(env); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		var s snap
		s.now = d.Clock.Now()
		s.reads = d.FRAM.Reads - base
		s.retired = c.Retired()
		s.regs = c.R
		s.voltage = float64(d.Supply.Voltage())
		for i, sym := range []string{"data", "data2"} {
			a, ok := img.Symbols[sym]
			if !ok {
				t.Fatalf("symbol %s missing", sym)
			}
			v, err := d.Mem.ReadWord(memsim.Addr(a))
			if err != nil {
				t.Fatal(err)
			}
			s.dataWords[i] = v
		}
		return s
	}
	plain := exec(false)
	cached := exec(true)
	if plain != cached {
		t.Fatalf("cached execution diverged:\nplain:  %+v\ncached: %+v", plain, cached)
	}
}

// interruptTimer is a device monitor that raises the interrupt wire every
// period cycles, so the ISR runs from inside whichever env call of the
// current instruction crosses the boundary.
type interruptTimer struct {
	d      *device.Device
	period sim.Cycles
}

func (m interruptTimer) Period() sim.Cycles { return m.period }
func (m interruptTimer) Sample(sim.Cycles)  { m.d.RaiseInterrupt() }

// TestInterruptDuringUncachedStep runs a program whose ISR steps the same
// CPU, as Program's ISR does, from inside the env calls of the instruction
// it interrupts, once with the decode cache off and once with it on.
// Outside the cache, Step decodes into storage the CPU owns, one slot per
// nesting depth: an ISR instruction decoded over the interrupted one would
// make the interrupted instruction finish as something else, and the two
// runs would part.
func TestInterruptDuringUncachedStep(t *testing.T) {
	src := `.org 0x4500
main:	mov #data, r8
loop:	add #1, r5
	mov r5, &0x1C20
	add &0x1C20, r7
	mov data, r6
	mov r6, data2
	add @r8, r7
	push r7
	pop r11
	jmp loop
isr:	add #3, r9
	mov r9, &0x1C40
	add &0x1C40, r10
	xor r5, r12
	reti
data:	.word 0x1234
data2:	.word 0
`
	type state struct {
		now   sim.Cycles
		regs  [16]uint16
		words [4]uint16
		isrs  int
	}
	exec := func(cache bool) (s state, nested int) {
		d, env, c := cpuRig(t)
		img, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range img.Words {
			if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
				t.Fatal(err)
			}
		}
		if cache {
			c.EnableDecodeCache(d.FRAM, img.Org, img.Size())
		}
		c.Reset(img.Entry, uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize))
		vec := img.Symbols["isr"]
		d.SetISR(func(env *device.Env) {
			s.isrs++
			if c.depth > 0 {
				nested++ // an uncached Step is in flight below this ISR
			}
			c.Interrupt(env, vec)
			for c.InInterrupt() {
				if err := c.Step(env); err != nil {
					t.Fatalf("isr step: %v", err)
				}
			}
		})
		d.AddMonitor(interruptTimer{d, 97})
		for i := 0; i < 3000; i++ {
			if err := c.Step(env); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		s.now = d.Clock.Now()
		s.regs = c.R
		for i, a := range []memsim.Addr{0x1C20, 0x1C40, memsim.Addr(img.Symbols["data"]), memsim.Addr(img.Symbols["data2"])} {
			if s.words[i], err = d.Mem.ReadWord(a); err != nil {
				t.Fatal(err)
			}
		}
		return s, nested
	}
	plain, nested := exec(false)
	cached, _ := exec(true)
	if nested == 0 {
		t.Fatalf("no interrupt arrived inside an uncached Step (%d ISRs)", plain.isrs)
	}
	if plain != cached {
		t.Fatalf("uncached run with nested Steps diverged from the cached run:\nuncached: %+v\ncached:   %+v", plain, cached)
	}
}
