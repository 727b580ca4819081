package device

import (
	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/units"
)

// Instruction-cost model, in MCU cycles. The values are MSP430FR-flavored:
// FRAM and SRAM run without wait states at 4 MHz; a word load is 3 cycles,
// a store 4, a taken branch 2.
const (
	CyclesLoad    = 3
	CyclesStore   = 4
	CyclesBranch  = 2
	CyclesCompute = 1 // per ALU op
)

// Env is the firmware's window onto the device. Every method that touches
// hardware advances the simulated clock and drains the capacitor, so the
// act of computing is inseparable from the act of consuming energy — the
// property that makes intermittent software hard and that EDB is built to
// observe without disturbing.
//
// Firmware must keep all persistent program state in simulated memory (via
// LoadWord/StoreWord on FRAM addresses) and treat Go local variables as the
// register file/stack: they vanish when a *PowerFailure unwinds Main, just
// as a reboot clears volatile registers and SRAM.
type Env struct {
	D *Device
}

// tick advances time by n cycles on behalf of executing firmware.
func (e *Env) tick(n sim.Cycles) { e.D.advance(n, e) }

// Compute charges n cycles of pure computation.
func (e *Env) Compute(n int) {
	if n > 0 {
		e.tick(sim.Cycles(n) * CyclesCompute)
	}
}

// Branch charges one taken-branch cost; call it in loop heads to model
// control-flow cost honestly.
func (e *Env) Branch() { e.tick(CyclesBranch) }

// LoadWord reads a 16-bit word from simulated memory. An illegal address
// panics with *MemoryFault — the simulated equivalent of dereferencing a
// wild pointer; the value belongs to the device (see MemoryFault).
func (e *Env) LoadWord(a memsim.Addr) uint16 {
	e.tick(CyclesLoad)
	v, ok := e.D.Mem.TryReadWord(a)
	if !ok {
		e.D.memoryFault(a, false)
	}
	return v
}

// StoreWord writes a 16-bit word to simulated memory.
func (e *Env) StoreWord(a memsim.Addr, v uint16) {
	e.tick(CyclesStore)
	if !e.D.Mem.TryWriteWord(a, v) {
		e.D.memoryFault(a, true)
	}
}

// LoadByte reads one byte from simulated memory.
func (e *Env) LoadByte(a memsim.Addr) byte {
	e.tick(CyclesLoad)
	v, ok := e.D.Mem.TryReadByte(a)
	if !ok {
		e.D.memoryFault(a, false)
	}
	return v
}

// StoreByte writes one byte to simulated memory.
func (e *Env) StoreByte(a memsim.Addr, v byte) {
	e.tick(CyclesStore)
	if !e.D.Mem.TryWriteByte(a, v) {
		e.D.memoryFault(a, true)
	}
}

// LoadPtr reads a pointer-sized value (an Addr) from memory.
func (e *Env) LoadPtr(a memsim.Addr) memsim.Addr {
	return memsim.Addr(e.LoadWord(a))
}

// StorePtr writes a pointer-sized value to memory.
func (e *Env) StorePtr(a memsim.Addr, p memsim.Addr) {
	e.StoreWord(a, uint16(p))
}

// SetPin drives a GPIO line, costing one cycle.
func (e *Env) SetPin(line string, level bool) {
	e.tick(1)
	e.D.GPIO.set(line, level)
}

// TogglePin inverts a GPIO line.
func (e *Env) TogglePin(line string) {
	e.tick(1)
	e.D.GPIO.toggle(line)
}

// PulsePin raises then lowers a line — the "toggle an LED / GPIO at a point
// of interest" idiom, and the code-marker signalling mechanism.
func (e *Env) PulsePin(line string) {
	e.SetPin(line, true)
	e.SetPin(line, false)
}

// UARTWrite transmits bytes on the serial port (time + energy).
func (e *Env) UARTWrite(data []byte) { e.D.UART.transmit(e, data) }

// UARTRead receives one byte, waiting up to maxWait cycles.
func (e *Env) UARTRead(maxWait sim.Cycles) (byte, bool) {
	return e.D.UART.receive(e, maxWait)
}

// I2CReadRegs reads registers from an I2C peripheral.
func (e *Env) I2CReadRegs(addr, reg byte, n int) ([]byte, error) {
	return e.D.I2C.ReadRegs(e, addr, reg, n)
}

// I2CWriteRegs writes registers on an I2C peripheral.
func (e *Env) I2CWriteRegs(addr, reg byte, data []byte) error {
	return e.D.I2C.WriteRegs(e, addr, reg, data)
}

// RFReceive pops and decodes one RF frame, if any.
func (e *Env) RFReceive() (RFFrame, bool, bool) { return e.D.RF.Receive(e) }

// RFTransmit backscatters a reply frame.
func (e *Env) RFTransmit(bits []byte) { e.D.RF.Transmit(e, bits) }

// Voltage returns the true storage-capacitor voltage. Firmware measuring
// its own supply would burn energy to do so; this accessor exists for
// tests and oracles, not for firmware — firmware that wants a reading
// should use MeasureSelfVoltage, which charges the ADC cost.
func (e *Env) Voltage() float64 {
	e.D.flushSupply()
	return float64(e.D.Supply.Voltage())
}

// MeasureSelfVoltage models the target sampling its own stored energy with
// its on-board ADC: it costs time and energy, perturbing the very state
// being measured (§4.1: "doing so uses energy, perturbing the energy state
// being measured").
func (e *Env) MeasureSelfVoltage() float64 {
	const adcCycles = 160 // sample-and-hold + conversion
	e.tick(adcCycles)
	e.D.flushSupply()
	return float64(e.D.Supply.Voltage())
}

// Sleep puts the MCU in a low-power mode for n cycles: time passes at the
// sleep current instead of the active current. Firmware uses it to wait for
// sensor data-ready intervals. A power failure during sleep unwinds as
// usual; the low-power flag is cleared on reboot.
func (e *Env) Sleep(n sim.Cycles) {
	e.D.flushSupply() // active-current cycles integrate before the mode switch
	e.D.lowPower = true
	defer func() {
		e.D.flushSupply() // and sleep-current cycles before returning to active
		e.D.lowPower = false
	}()
	e.tick(n)
}

// SleepFor sleeps for a wall-clock duration.
func (e *Env) SleepFor(d units.Seconds) { e.Sleep(e.D.Clock.ToCycles(d)) }

// Now returns the current simulated cycle.
func (e *Env) Now() sim.Cycles { return e.D.Clock.Now() }
