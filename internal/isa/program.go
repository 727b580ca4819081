package isa

import (
	"fmt"
	"strings"

	"repro/internal/device"
	"repro/internal/libedb"
	"repro/internal/memsim"
	"repro/internal/sim"
)

// The debug port: a block of memory-mapped registers through which ISA
// firmware reaches libEDB and simple board facilities. Real intermittent
// platforms expose debug facilities exactly this way (an MMIO block the
// target-side library writes). Addresses sit in the otherwise-unmapped
// low page, where the MSP430 keeps its SFRs.
const (
	// PortWatchpoint: write id (1..3) to signal a code-marker watchpoint.
	PortWatchpoint memsim.Addr = 0x0120
	// PortAssertFail: write an assert id to report that assertion FAILED.
	PortAssertFail memsim.Addr = 0x0122
	// PortPrintChar: write a byte; '\n' flushes the line through EDB's
	// energy-interference-free printf.
	PortPrintChar memsim.Addr = 0x0124
	// PortGuard: write 1 to open an energy guard, 0 to close it.
	PortGuard memsim.Addr = 0x0126
	// PortAppPin: write 0/1 to drive the application progress pin; writes
	// with bit 1 set toggle it.
	PortAppPin memsim.Addr = 0x0128
	// PortLED: write 0/1 to drive the LED (a real 4+ mA load).
	PortLED memsim.Addr = 0x012A
	// PortHalt: any write stops the program (normal completion).
	PortHalt memsim.Addr = 0x012C
	// PortSleep: write n to enter low-power mode for n*64 cycles.
	PortSleep memsim.Addr = 0x012E
	// PortRand: reads a pseudo-random word (board TRNG).
	PortRand memsim.Addr = 0x0130
	// PortBreak: write an id to trap into an interactive EDB session (a
	// code breakpoint that is always enabled). Assembly ISRs handling
	// EDB's interrupt wire use it to hand control to the console.
	PortBreak memsim.Addr = 0x0132
)

// IVTEntry is where the program wrapper keeps the interrupt vector: ISA
// programs that define a symbol named "isr" get EDB's interrupt wire
// vectored to it.
const isrSymbol = "isr"

// Program wraps an assembled image as a device.Program: flash writes the
// machine code into simulated FRAM; Main resets the CPU (volatile register
// file!) and steps it until power fails, the image halts, or the deadline
// unwinds it. Rebooting re-enters Main, which resets the CPU at the entry
// vector — non-volatile memory, including the program and its .word data,
// survives.
type Program struct {
	// Source is the assembly text (assembled at Flash).
	Source string
	// ProgName labels the program.
	ProgName string

	img *Image
	cpu *CPU
	lib *libedb.Lib

	printBuf strings.Builder
	stackTop uint16
}

// NewProgram wraps assembly source.
func NewProgram(name, source string) *Program {
	return &Program{ProgName: name, Source: source}
}

// Name implements device.Program.
func (p *Program) Name() string { return p.ProgName }

// Image returns the assembled image (after Flash).
func (p *Program) Image() *Image { return p.img }

// CPU exposes the interpreter (tests inspect registers).
func (p *Program) CPU() *CPU { return p.cpu }

// Flash implements device.Program: assemble, burn into FRAM, wire ports.
func (p *Program) Flash(d *device.Device) error {
	img, err := Assemble(p.Source)
	if err != nil {
		return err
	}
	p.img = img

	lib, err := libedb.Init(d)
	if err != nil {
		return err
	}
	p.lib = lib

	// Burn the image: machine code lives in simulated non-volatile
	// memory, fetched through the same metered paths as data. Reserve
	// the region in the allocator when it overlaps the bump area.
	for i, w := range img.Words {
		addr := memsim.Addr(img.Org) + memsim.Addr(2*i)
		if err := d.Mem.WriteWord(addr, w); err != nil {
			return fmt.Errorf("isa: flashing %#04x: %w", addr, err)
		}
	}
	// Keep the allocator clear of the image (grab FRAM up to its end).
	if end := int(img.Org) + img.Size() - int(memsim.FRAMBase); end > d.FRAM.InUse() {
		if _, err := d.FRAM.Alloc(end - d.FRAM.InUse()); err != nil {
			return fmt.Errorf("isa: reserving image region: %w", err)
		}
	}

	p.stackTop = uint16(memsim.SRAMBase) + uint16(memsim.SRAMSize) // grows down
	p.cpu = NewCPU()
	p.cpu.EnableDecodeCache(d.FRAM, img.Org, img.Size())
	p.mapPorts(d)

	// Interrupts: EDB's wire vectors to the "isr" symbol if defined.
	if vec, ok := img.Symbols[isrSymbol]; ok {
		d.SetISR(func(env *device.Env) {
			p.cpu.Interrupt(env, vec)
			for p.cpu.InInterrupt() && !p.cpu.halted {
				if err := p.cpu.Step(env); err != nil {
					panic(&device.Halted{At: env.Now(), Reason: err.Error()})
				}
			}
		})
	}
	return nil
}

// mapPorts wires the debug port block.
func (p *Program) mapPorts(d *device.Device) {
	c := p.cpu
	c.MapPort(PortWatchpoint, Port{Write: func(env *device.Env, v uint16) {
		p.lib.Watchpoint(env, int(v))
	}})
	c.MapPort(PortAssertFail, Port{Write: func(env *device.Env, v uint16) {
		p.lib.Assert(env, int(v), false)
	}})
	c.MapPort(PortPrintChar, Port{Write: func(env *device.Env, v uint16) {
		if byte(v) == '\n' {
			p.lib.Printf(env, "%s", p.printBuf.String())
			p.printBuf.Reset()
			return
		}
		p.printBuf.WriteByte(byte(v))
	}})
	c.MapPort(PortGuard, Port{Write: func(env *device.Env, v uint16) {
		if v != 0 {
			p.lib.GuardBegin(env)
		} else {
			p.lib.GuardEnd(env)
		}
	}})
	c.MapPort(PortAppPin, Port{Write: func(env *device.Env, v uint16) {
		if v&2 != 0 {
			env.TogglePin(device.LineAppPin)
			return
		}
		env.SetPin(device.LineAppPin, v&1 != 0)
	}})
	c.MapPort(PortLED, Port{Write: func(env *device.Env, v uint16) {
		env.SetPin(device.LineLED, v&1 != 0)
	}})
	c.MapPort(PortHalt, Port{Write: func(env *device.Env, v uint16) {
		c.halted = true
	}})
	c.MapPort(PortSleep, Port{Write: func(env *device.Env, v uint16) {
		env.Sleep(sim.Cycles(v) * 64)
	}})
	c.MapPort(PortRand, Port{Read: func(env *device.Env) uint16 {
		return d.RNG.Uint16()
	}})
	c.MapPort(PortBreak, Port{Write: func(env *device.Env, v uint16) {
		dbg := d.Debugger()
		if dbg == nil {
			return
		}
		env.SetPin(device.LineDebugSignal, true)
		if dbg.DebugRequest(env, device.ReqBreakpoint, v) {
			dbg.EnterInteractive(env, fmt.Sprintf("isa breakpoint %d", v))
			dbg.DebugDone(env)
		}
		env.SetPin(device.LineDebugSignal, false)
	}})
}

// Main implements device.Program: power-on reset, then run until the
// image halts.
func (p *Program) Main(env *device.Env) {
	p.ResetCPU()
	p.StepUntil(env, device.Never)
}

// ResetCPU performs the power-on reset Main starts with: fresh register
// file, PC at the entry vector, stack at the top of SRAM (the reboot
// cleared the volatile stack). device.Runner calls it at each power-on
// and then drives the CPU through StepUntil instead of a single Main call.
func (p *Program) ResetCPU() {
	p.cpu.Reset(p.img.Entry, p.stackTop)
}

// StepUntil advances the program until it halts (returns true) or simulated
// time reaches limit (returns false, with the program ready to continue from
// the same state in a later slice). The limit is only checked between
// instruction chains, never mid-instruction, so a run split across any
// slice boundaries matches an unsliced run cycle for cycle.
func (p *Program) StepUntil(env *device.Env, limit sim.Cycles) bool {
	for !p.cpu.halted {
		if env.Now() >= limit {
			return false
		}
		if err := p.cpu.RunChain(env); err != nil {
			// Executing garbage (corrupted code or wild PC): the MCU
			// wedges like any other fault.
			panic(&device.MemoryFault{At: env.Now(), Fault: &memsim.Fault{Addr: memsim.Addr(p.cpu.R[PC])}})
		}
	}
	return true
}
