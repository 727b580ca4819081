package isa

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/units"
)

// cpuRig builds a powered device and a CPU with a scratch program area.
func cpuRig(t testing.TB) (*device.Device, *device.Env, *CPU) {
	t.Helper()
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(10), Voc: 3.3}, 1)
	d.Supply.Cap.SetVoltage(2.4)
	d.Supply.Step(0, 0)
	env := &device.Env{D: d}
	c := NewCPU()
	c.Reset(0x4500, uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize))
	return d, env, c
}

// load burns words at addr.
func load(t *testing.T, d *device.Device, addr uint16, words ...uint16) {
	t.Helper()
	for i, w := range words {
		if err := d.Mem.WriteWord(memsim.Addr(addr)+memsim.Addr(2*i), w); err != nil {
			t.Fatal(err)
		}
	}
}

// run assembles a snippet at 0x4500 (with a trailing jmp $ guard), executes
// n instructions, and returns the CPU.
func run(t *testing.T, src string, n int) (*device.Device, *CPU) {
	t.Helper()
	d, env, c := cpuRig(t)
	img, err := Assemble(".org 0x4500\n" + src + "\nhang: jmp hang\n")
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	for i, w := range img.Words {
		if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset(img.Entry, uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize))
	for i := 0; i < n; i++ {
		if err := c.Step(env); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return d, c
}

func TestMovAddImmediates(t *testing.T) {
	_, c := run(t, `
	mov #0x1234, r5
	mov r5, r6
	add #0x1111, r6
	`, 3)
	if c.R[5] != 0x1234 || c.R[6] != 0x2345 {
		t.Fatalf("r5=%#x r6=%#x", c.R[5], c.R[6])
	}
}

func TestArithmeticFlags(t *testing.T) {
	cases := []struct {
		src   string
		steps int
		check func(t *testing.T, c *CPU)
	}{
		{"mov #0xFFFF, r5\nadd #1, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[5] != 0 {
				t.Fatalf("r5=%#x", c.R[5])
			}
			if c.R[SR]&FlagZ == 0 || c.R[SR]&FlagC == 0 {
				t.Fatalf("flags=%#x want Z,C", c.R[SR])
			}
		}},
		{"mov #0x7FFF, r5\nadd #1, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[5] != 0x8000 {
				t.Fatalf("r5=%#x", c.R[5])
			}
			if c.R[SR]&FlagV == 0 || c.R[SR]&FlagN == 0 {
				t.Fatalf("flags=%#x want V,N", c.R[SR])
			}
		}},
		{"mov #5, r5\nsub #7, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[5] != 0xFFFE {
				t.Fatalf("r5=%#x", c.R[5])
			}
			// Borrow: C clear on MSP430 when the subtraction borrows.
			if c.R[SR]&FlagC != 0 {
				t.Fatalf("flags=%#x want no C (borrow)", c.R[SR])
			}
			if c.R[SR]&FlagN == 0 {
				t.Fatalf("flags=%#x want N", c.R[SR])
			}
		}},
		{"mov #7, r5\nsub #7, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[5] != 0 || c.R[SR]&FlagZ == 0 || c.R[SR]&FlagC == 0 {
				t.Fatalf("r5=%#x flags=%#x", c.R[5], c.R[SR])
			}
		}},
		{"mov #0x0F0F, r5\nand #0x00FF, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[5] != 0x000F {
				t.Fatalf("r5=%#x", c.R[5])
			}
			if c.R[SR]&FlagC == 0 { // C = !Z for logic ops
				t.Fatalf("flags=%#x want C", c.R[SR])
			}
		}},
		{"mov #0xAAAA, r5\nxor #0xAAAA, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[5] != 0 || c.R[SR]&FlagZ == 0 {
				t.Fatalf("r5=%#x flags=%#x", c.R[5], c.R[SR])
			}
		}},
		{"mov #0x00F0, r5\nbis #0x000F, r5\nbic #0x0030, r5", 3, func(t *testing.T, c *CPU) {
			if c.R[5] != 0x00CF {
				t.Fatalf("r5=%#x", c.R[5])
			}
		}},
		{"mov #6, r5\ncmp #6, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[5] != 6 {
				t.Fatal("cmp must not write")
			}
			if c.R[SR]&FlagZ == 0 {
				t.Fatalf("flags=%#x", c.R[SR])
			}
		}},
		{"mov #0x8001, r5\nbit #0x8000, r5", 2, func(t *testing.T, c *CPU) {
			if c.R[SR]&FlagN == 0 || c.R[SR]&FlagZ != 0 {
				t.Fatalf("flags=%#x", c.R[SR])
			}
		}},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(string(rune('a'+i)), func(t *testing.T) {
			_, c := run(t, tc.src, tc.steps)
			tc.check(t, c)
		})
	}
}

func TestCarryChainAddc(t *testing.T) {
	// 32-bit add: 0x0001FFFF + 0x00010001 = 0x00030000.
	_, c := run(t, `
	mov #0xFFFF, r5   ; low
	mov #0x0001, r6   ; high
	add #0x0001, r5
	addc #0x0001, r6
	`, 4)
	if c.R[5] != 0x0000 || c.R[6] != 0x0003 {
		t.Fatalf("result = %#x%04x", c.R[6], c.R[5])
	}
}

func TestByteOpsClearHighByte(t *testing.T) {
	_, c := run(t, `
	mov #0x1234, r5
	add.b #0x10, r5
	`, 2)
	if c.R[5] != 0x0044 {
		t.Fatalf("r5=%#x (byte ops must clear the high byte)", c.R[5])
	}
}

func TestShiftsAndSwap(t *testing.T) {
	_, c := run(t, `
	mov #0x8002, r5
	rra r5
	mov #0x0001, r6
	rrc r6          ; C was 0 after rra (lsb of 0x8002)
	mov #0x1234, r7
	swpb r7
	mov #0x0080, r8
	sxt r8
	`, 8)
	if c.R[5] != 0xC001 {
		t.Fatalf("rra: %#x", c.R[5])
	}
	if c.R[7] != 0x3412 {
		t.Fatalf("swpb: %#x", c.R[7])
	}
	if c.R[8] != 0xFF80 {
		t.Fatalf("sxt: %#x", c.R[8])
	}
}

func TestMemoryAddressing(t *testing.T) {
	d, c := run(t, `
	mov #data, r4
	mov @r4+, r5      ; r5 = 0x1111, r4 advances
	mov @r4, r6       ; r6 = 0x2222
	mov #0x3333, 2(r4)
	mov &data, r7     ; absolute read
	jmp done
data:	.word 0x1111, 0x2222, 0x0000
done:	nop
	`, 6)
	if c.R[5] != 0x1111 || c.R[6] != 0x2222 || c.R[7] != 0x1111 {
		t.Fatalf("r5=%#x r6=%#x r7=%#x", c.R[5], c.R[6], c.R[7])
	}
	// The indexed store landed in the third data word.
	dataAddr := memsim.Addr(c.R[4] + 2)
	v, err := d.Mem.ReadWord(dataAddr)
	if err != nil || v != 0x3333 {
		t.Fatalf("indexed store: %#x err=%v", v, err)
	}
}

func TestStackOps(t *testing.T) {
	_, c := run(t, `
	mov #0xBEEF, r5
	push r5
	clr r5
	pop r6
	`, 4)
	if c.R[6] != 0xBEEF || c.R[5] != 0 {
		t.Fatalf("r5=%#x r6=%#x", c.R[5], c.R[6])
	}
	if c.R[SP] != uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize) {
		t.Fatalf("sp=%#x (unbalanced)", c.R[SP])
	}
}

func TestCallRet(t *testing.T) {
	_, c := run(t, `
	mov #5, r5
	call #double
	jmp done
double:	add r5, r5
	ret
done:	nop
	`, 6)
	if c.R[5] != 10 {
		t.Fatalf("r5=%d", c.R[5])
	}
}

func TestJumpConditions(t *testing.T) {
	// Count down from 3; loop body increments r6 each pass.
	_, c := run(t, `
	mov #3, r5
	clr r6
loop:	inc r6
	dec r5
	jnz loop
	`, 2+3*3)
	if c.R[6] != 3 || c.R[5] != 0 {
		t.Fatalf("r5=%d r6=%d", c.R[5], c.R[6])
	}
}

func TestSignedJumps(t *testing.T) {
	_, c := run(t, `
	mov #0xFFFE, r5   ; -2
	cmp #1, r5        ; -2 - 1: negative
	jl less
	mov #0, r7
	jmp out
less:	mov #1, r7
out:	nop
	`, 5)
	if c.R[7] != 1 {
		t.Fatalf("jl not taken: r7=%d", c.R[7])
	}
}

func TestInterruptAndReti(t *testing.T) {
	d, env, c := cpuRig(t)
	img, err := Assemble(`
	.org 0x4500
main:	inc r5
	jmp main
isr:	inc r6
	reti
	`)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range img.Words {
		if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset(img.Entry, uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize))
	for i := 0; i < 4; i++ {
		if err := c.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	r5Before := c.R[5]
	c.Interrupt(env, img.Symbols["isr"])
	if !c.InInterrupt() {
		t.Fatal("must be in interrupt")
	}
	for c.InInterrupt() {
		if err := c.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	if c.R[6] != 1 {
		t.Fatalf("isr did not run: r6=%d", c.R[6])
	}
	// Execution resumes in main; r5 keeps counting.
	for i := 0; i < 4; i++ {
		if err := c.Step(env); err != nil {
			t.Fatal(err)
		}
	}
	if c.R[5] <= r5Before {
		t.Fatalf("main did not resume: r5=%d", c.R[5])
	}
}

func TestExecutingGarbageFails(t *testing.T) {
	d, env, c := cpuRig(t)
	load(t, d, 0x4500, 0x0000) // not an instruction
	c.Reset(0x4500, 0x2400)
	if err := c.Step(env); err == nil {
		t.Fatal("garbage must not execute")
	}
	_ = d
}

func TestMMIOPorts(t *testing.T) {
	d, env, c := cpuRig(t)
	var wrote uint16
	c.MapPort(0x0120, Port{
		Write: func(env *device.Env, v uint16) { wrote = v },
		Read:  func(env *device.Env) uint16 { return 0x55AA },
	})
	load(t, d, 0x4500,
		0x40B2, 0x0007, 0x0120, // mov #7, &0x0120
		0x4215, 0x0120, // mov &0x0120, r5
	)
	c.Reset(0x4500, 0x2400)
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if wrote != 7 {
		t.Fatalf("port write = %#x", wrote)
	}
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if c.R[5] != 0x55AA {
		t.Fatalf("port read = %#x", c.R[5])
	}
}

// TestALUAgainstReferenceModel drives random arithmetic through the CPU
// and checks results against plain Go uint16 arithmetic (property test).
func TestALUAgainstReferenceModel(t *testing.T) {
	f := func(a, b uint16, opSel uint8) bool {
		ops := []struct {
			mnem string
			ref  func(d, s uint16) uint16
		}{
			{"add", func(d, s uint16) uint16 { return d + s }},
			{"sub", func(d, s uint16) uint16 { return d - s }},
			{"and", func(d, s uint16) uint16 { return d & s }},
			{"xor", func(d, s uint16) uint16 { return d ^ s }},
			{"bis", func(d, s uint16) uint16 { return d | s }},
			{"bic", func(d, s uint16) uint16 { return d &^ s }},
		}
		op := ops[int(opSel)%len(ops)]
		src := fmt.Sprintf(`
	mov #%d, r5
	mov #%d, r6
	%s r6, r5
	`, a, b, op.mnem)
		_, c := run(t, src, 3)
		return c.R[5] == op.ref(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestCarryFlagMatchesWideArithmetic checks C against 32-bit reference
// addition across random operands.
func TestCarryFlagMatchesWideArithmetic(t *testing.T) {
	f := func(a, b uint16) bool {
		src := fmt.Sprintf("mov #%d, r5\nadd #%d, r5\n", a, b)
		_, c := run(t, src, 2)
		wantC := uint32(a)+uint32(b) > 0xFFFF
		gotC := c.R[SR]&FlagC != 0
		wantZ := a+b == 0
		gotZ := c.R[SR]&FlagZ != 0
		return gotC == wantC && gotZ == wantZ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestDADDDecimalArithmetic(t *testing.T) {
	// 0199 + 0001 = 0200 in BCD (clear carry first: dadd adds C in).
	_, c := run(t, `
	clr r4            ; clears carry via flags? ensure with cmp
	mov #0x0199, r5
	clrc
	dadd #0x0001, r5
	`, 4)
	if c.R[5] != 0x0200 {
		t.Fatalf("dadd: %#04x, want 0x0200", c.R[5])
	}
	// 9999 + 0001 wraps with carry.
	_, c2 := run(t, `
	mov #0x9999, r5
	clrc
	dadd #0x0001, r5
	`, 3)
	if c2.R[5] != 0x0000 {
		t.Fatalf("dadd wrap: %#04x", c2.R[5])
	}
	if c2.R[SR]&FlagC == 0 {
		t.Fatal("decimal carry must set C")
	}
}
